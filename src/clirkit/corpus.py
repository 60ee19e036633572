"""Document collections, topics, qrels, and bilingual dictionaries.

Parsing is streaming and single-pass: a collection is read a line (jsonl)
or a 64 KiB chunk (TREC SGML) at a time, never whole. Parsed stores are
plain immutable values safe to share across threads.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator

from clirkit.stemmer import porter_stem

# Tokens are maximal alphanumeric runs (underscore excluded).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# The same tokenizer for Latin-1 text (every char below U+0100), as byte
# tables for ``bytes.translate``: keeping the alphanumeric bytes and blanking
# the rest leaves the runs ``[^\W_]+`` finds, for ``split``. In this range
# ``str.lower`` maps each char to one char, so ``_LATIN1_LOWER`` lowercases
# in the same translation.
_LATIN1_KEEP = "".join(c if c.isalnum() else " " for c in map(chr, range(256))).encode("latin-1")
_LATIN1_LOWER = _LATIN1_KEEP.decode("latin-1").lower().encode("latin-1")

_STEMMERS = ("none", "porter")


def check_stemmer(stemmer: str) -> None:
    """Raise ValueError unless ``stemmer`` is a supported stemmer."""
    if stemmer not in _STEMMERS:
        raise ValueError(f"unknown stemmer {stemmer!r}, expected one of {_STEMMERS}")


class ParseError(ValueError):
    """Malformed input file, with position information when available."""

    def __init__(self, message: str, *, line: int | None = None,
                 byte_offset: int | None = None, docs_parsed: int | None = None):
        parts = [message]
        if line is not None:
            parts.append(f"line {line}")
        if byte_offset is not None:
            parts.append(f"byte offset {byte_offset}")
        if docs_parsed is not None:
            parts.append(f"{docs_parsed} documents parsed so far")
        super().__init__("; ".join(parts))
        self.line = line
        self.byte_offset = byte_offset
        self.docs_parsed = docs_parsed


class DuplicateDocIdError(ValueError):
    def __init__(self, doc_id: str):
        super().__init__(f"duplicate document id: {doc_id!r}")
        self.doc_id = doc_id


@dataclass
class Document:
    """A tokenized document; ``length`` is always the token count."""

    doc_id: str
    tokens: tuple[str, ...]

    def __post_init__(self):
        self.tokens = tuple(self.tokens)

    @property
    def length(self) -> int:
        return len(self.tokens)


@dataclass
class Topic:
    topic_id: str
    title_terms: tuple[str, ...]
    desc_terms: tuple[str, ...] = ()

    def query_terms(self, verbose: bool = False) -> tuple[str, ...]:
        """Short query is the title; verbose appends the description."""
        if verbose:
            return self.title_terms + self.desc_terms
        return self.title_terms


@dataclass(frozen=True)
class NormalizationPipeline:
    """Text normalization applied identically to documents, topics, and
    dictionary entries of one language."""

    lowercase: bool = True
    stopwords: frozenset[str] = frozenset()
    stemmer: str = "none"

    def __post_init__(self):
        check_stemmer(self.stemmer)
        object.__setattr__(self, "stopwords", frozenset(self.stopwords))


def normalize(text: str, pipeline: NormalizationPipeline) -> list[str]:
    """Tokenize on non-alphanumeric runs, lowercase, drop stopwords, stem.

    Stage order matters: lowercasing happens before the stopword filter,
    stemming last. Output order preserves input order. Latin-1 text is
    tokenized and lowercased in one byte translation; other text takes the
    regex and per-token ``str.lower`` (``"İ".lower()`` is two chars, and
    ``"Σ"`` lowers by context).
    """
    try:
        raw = text.encode("latin-1")
    except UnicodeEncodeError:
        tokens = _TOKEN_RE.findall(text)
        if pipeline.lowercase:
            tokens = [t.lower() for t in tokens]
    else:
        table = _LATIN1_LOWER if pipeline.lowercase else _LATIN1_KEEP
        tokens = raw.translate(table).decode("latin-1").split()
    if pipeline.stopwords:
        tokens = [t for t in tokens if t not in pipeline.stopwords]
    if pipeline.stemmer == "porter":
        tokens = [porter_stem(t) for t in tokens]
    return tokens


@dataclass
class BilingualDictionary:
    """Source term -> ordered candidate translations.

    Candidate order is preserved from the input file, so the first entry
    is the top-1 translation. Multiword translations are split into
    unigram candidates; the counters below record how often the parser
    had to do that or drop an entry.
    """

    entries: dict[str, tuple[str, ...]] = field(default_factory=dict)
    dropped_entries: int = 0
    multiword_splits: int = 0


def parse_documents(path: str) -> Iterator[tuple[str, str]]:
    """Yield (doc_id, raw_text) pairs in file order.

    The format is detected at the call, from the file's first non-whitespace
    byte: ``{`` is jsonl, ``<`` TREC SGML; a file with none holds no documents.
    """
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            if head := chunk.lstrip():
                break
        else:
            return iter(())
        offset = fh.tell() - len(head)
    if head[:1] == b"{":
        return _parse_records(_jsonl_records(path), _jsonl_fields)
    if head[:1] == b"<":
        return _parse_records(_sgml_records(path), _sgml_fields)
    raise ParseError(f"{path}: unknown document format, first non-blank byte {head[:1]!r} "
                     "is neither '{' (jsonl) nor '<' (TREC SGML)",
                     byte_offset=offset, docs_parsed=0)


def _parse_records(records: Iterator[tuple[int, bytes]],
                   fields: Callable[[str], tuple[str, str]]) -> Iterator[tuple[str, str]]:
    """Decode each (byte offset, record) as UTF-8, take its id and text with
    ``fields`` and check the id; errors give the offset and the count so far."""
    seen: set[str] = set()
    for count, (offset, record) in enumerate(records):
        try:
            doc_id, text = fields(record.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 ({exc.reason})", byte_offset=offset + exc.start,
                             docs_parsed=count) from exc
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(f"malformed record ({exc})", byte_offset=offset,
                             docs_parsed=count) from exc
        # run files are whitespace-separated columns, so an id with whitespace
        # would be written into a run file that cannot be read back
        if doc_id.split() != [doc_id]:
            raise ParseError(f"document id {doc_id!r} is empty or contains whitespace",
                             byte_offset=offset, docs_parsed=count)
        if doc_id in seen:
            raise DuplicateDocIdError(doc_id)
        seen.add(doc_id)
        yield doc_id, text


def _json_text(value: object, key: str, numeric: bool = False) -> str:
    """A JSON field as text: a string, or an int or float where ``numeric``.
    ``str`` would make null, a bool, a list or an object into tokens."""
    if isinstance(value, str) or (numeric and type(value) in (int, float)):
        return str(value)
    raise TypeError(f"field {key!r} must be a string, got {json.dumps(value)[:40]}")


def _jsonl_records(path: str) -> Iterator[tuple[int, bytes]]:
    offset = 0
    with open(path, "rb") as fh:
        for raw in fh:
            if raw.strip():
                yield offset, raw
            offset += len(raw)


def _jsonl_fields(record: str) -> tuple[str, str]:
    obj = json.loads(record)
    return _json_text(obj["id"], "id", numeric=True), _json_text(obj["text"], "text")


_DOCNO_RE = re.compile(r"<DOCNO>(.*?)</DOCNO>", re.DOTALL)
_TEXT_RE = re.compile(r"<TEXT>(.*?)</TEXT>", re.DOTALL)


_SGML_CHUNK = 1 << 16


def _sgml_records(path: str) -> Iterator[tuple[int, bytes]]:
    """Each ``<DOC>`` to its ``</DOC>``, or to the end of the file if none.

    The file is read ``_SGML_CHUNK`` bytes at a time. Between reads only the
    open record is kept, or, between records, the bytes that may begin a
    ``<DOC>`` split by the read.
    """
    buf = bytearray()  # the file from byte offset ``base`` on, as far as read
    base = 0
    start = -1  # index in ``buf`` of the open record's <DOC>, or -1
    scan = 0  # index in ``buf`` where the next tag search begins
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_SGML_CHUNK), b""):
            buf += chunk
            while True:
                if start < 0:
                    start = buf.find(b"<DOC>", scan)
                    if start < 0:
                        scan = max(scan, len(buf) - len(b"<DOC"))
                        break
                    scan = start
                end = buf.find(b"</DOC>", scan)
                if end < 0:
                    scan = max(scan, len(buf) - len(b"</DOC"))
                    break
                scan = end + len(b"</DOC>")
                yield base + start, bytes(buf[start:scan])
                start = -1
            # drop what precedes the open record, or the search position
            cut = scan if start < 0 else start
            del buf[:cut]
            base += cut
            scan -= cut
            if start >= 0:
                start = 0
    if start >= 0:
        yield base + start, bytes(buf[start:])


def _sgml_fields(record: str) -> tuple[str, str]:
    if not record.endswith("</DOC>"):
        raise ValueError("unterminated <DOC> record")
    docno = _DOCNO_RE.search(record)
    if docno is None:
        raise ValueError("record without <DOCNO>")
    texts = _TEXT_RE.findall(record)
    if not texts:
        raise ValueError("record without <TEXT>")
    return docno.group(1).strip(), "\n".join(t.strip() for t in texts)


def _lines(path: str) -> Iterator[tuple[int, str]]:
    """Yield (line number, line) of a UTF-8 file, decoding line by line so
    a bad byte is reported at its line, not inside a text-mode chunk."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: not UTF-8 ({exc.reason})", line=lineno) from exc
            yield lineno, line


def load_documents(path: str, pipeline: NormalizationPipeline) -> Iterator[Document]:
    """Parse and normalize a collection lazily, one Document per record.

    The format is detected at once (see ``parse_documents``); the file is
    read, and each record parsed and normalized, only as the iterator is
    consumed, so no list of the collection's documents is ever held.
    """
    return (Document(doc_id, tuple(normalize(text, pipeline)))
            for doc_id, text in parse_documents(path))


def parse_dictionary(path: str, src_pipeline: NormalizationPipeline,
                     tgt_pipeline: NormalizationPipeline) -> BilingualDictionary:
    """Parse a TSV dictionary, `source<TAB>cand1 cand2 ...`.

    Both sides are normalized with their language's pipeline. Repeated
    source terms concatenate candidate lists, keeping first-occurrence
    order and dropping duplicates. Entries whose source or candidate list
    normalizes away are dropped and counted.
    """
    entries: dict[str, list[str]] = {}
    dropped = 0
    splits = 0
    for lineno, raw in _lines(path):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if "\t" not in line:
            raise ParseError("dictionary line without a tab", line=lineno)
        source_raw, cands_raw = line.split("\t", 1)
        source_tokens = normalize(source_raw, src_pipeline)
        if len(source_tokens) > 1:
            splits += 1
        candidates: list[str] = []
        for cand in cands_raw.split():
            cand_tokens = normalize(cand, tgt_pipeline)
            if len(cand_tokens) > 1:
                splits += 1
            candidates.extend(cand_tokens)
        if not source_tokens or not candidates:
            dropped += 1
            continue
        for source in source_tokens:
            bucket = entries.setdefault(source, [])
            for cand in candidates:
                if cand not in bucket:
                    bucket.append(cand)
    return BilingualDictionary(
        entries={s: tuple(c) for s, c in entries.items()},
        dropped_entries=dropped,
        multiword_splits=splits,
    )


def parse_qrels(path: str) -> dict[str, set[str]]:
    """Parse 4-column qrels; relevance > 0 marks a relevant document.

    Topics judged only non-relevant still appear, with an empty set.
    """
    qrels: dict[str, set[str]] = {}
    for lineno, raw in _lines(path):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ParseError("qrels line must have 4 columns", line=lineno)
        topic_id, _, doc_id, rel_str = parts
        try:
            rel = int(rel_str)
        except ValueError as exc:
            raise ParseError(f"non-integer relevance {rel_str!r}", line=lineno) from exc
        bucket = qrels.setdefault(topic_id, set())
        if rel > 0:
            bucket.add(doc_id)
    return qrels


def parse_topics(path: str, pipeline: NormalizationPipeline) -> list[Topic]:
    """Parse topics (jsonl with `id`, `title`, optional `desc`)."""
    topics: list[Topic] = []
    seen: set[str] = set()
    for lineno, raw in _lines(path):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            topic_id = _json_text(obj["id"], "id", numeric=True)
            title = _json_text(obj["title"], "title")
            desc = _json_text(obj.get("desc", ""), "desc")
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ParseError(f"malformed topic record ({exc})", line=lineno) from exc
        # the id is a whitespace-separated column of run files and keys a ranking
        if topic_id.split() != [topic_id]:
            raise ParseError(f"topic id {topic_id!r} is empty or contains whitespace",
                             line=lineno)
        if topic_id in seen:
            raise ParseError(f"duplicate topic id {topic_id!r}", line=lineno)
        seen.add(topic_id)
        title_terms = tuple(normalize(title, pipeline))
        if not title_terms:
            raise ParseError("topic title normalizes to nothing", line=lineno)
        desc_terms = tuple(normalize(desc, pipeline))
        topics.append(Topic(topic_id, title_terms, desc_terms))
    return topics


def load_stopwords(path: str) -> frozenset[str]:
    """One stopword per line, lowercased; blank lines and # comments skipped."""
    words = set()
    for _, line in _lines(path):
        word = line.strip().lower()
        if word and not word.startswith("#"):
            words.add(word)
    return frozenset(words)
