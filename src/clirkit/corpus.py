"""Document collections, topics, qrels, and bilingual dictionaries.

Parsing is streaming and single-pass; parsed stores are plain immutable
values safe to share across threads.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterator

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

_DOC_FORMATS = ("trec_sgml", "jsonl")
_STEMMERS = ("none", "porter")


def check_doc_format(format: str, name: str = "document format") -> None:
    """Raise ValueError unless ``format`` is a supported document format."""
    if format not in _DOC_FORMATS:
        raise ValueError(f"unknown {name} {format!r}, expected one of {_DOC_FORMATS}")


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


def parse_documents(path: str, format: str) -> Iterator[tuple[str, str]]:
    """Yield (doc_id, raw_text) pairs in file order."""
    check_doc_format(format)
    if format == "trec_sgml":
        return _parse_trec_sgml(path)
    return _parse_docs_jsonl(path)


def _check_doc_id(doc_id: str, seen: set[str], byte_offset: int,
                  docs_parsed: int) -> None:
    """Reject an id that is empty, contains whitespace or repeats one in
    ``seen``; record it there otherwise.

    Run files are whitespace-separated columns, so an id with whitespace
    would be written into a run file that cannot be read back.
    """
    if doc_id.split() != [doc_id]:
        raise ParseError(f"document id {doc_id!r} is empty or contains whitespace",
                         byte_offset=byte_offset, docs_parsed=docs_parsed)
    if doc_id in seen:
        raise DuplicateDocIdError(doc_id)
    seen.add(doc_id)


_DOCNO_RE = re.compile(r"<DOCNO>(.*?)</DOCNO>", re.DOTALL)
_TEXT_RE = re.compile(r"<TEXT>(.*?)</TEXT>", re.DOTALL)


def _parse_trec_sgml(path: str) -> Iterator[tuple[str, str]]:
    seen: set[str] = set()
    count = 0
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0
    while True:
        start = data.find(b"<DOC>", pos)
        if start < 0:
            break
        end = data.find(b"</DOC>", start)
        if end < 0:
            raise ParseError("unterminated <DOC> record",
                             byte_offset=start, docs_parsed=count)
        record = data[start:end].decode("utf-8")
        docno = _DOCNO_RE.search(record)
        if docno is None:
            raise ParseError("record without <DOCNO>",
                             byte_offset=start, docs_parsed=count)
        texts = _TEXT_RE.findall(record)
        if not texts:
            raise ParseError("record without <TEXT>",
                             byte_offset=start, docs_parsed=count)
        doc_id = docno.group(1).strip()
        _check_doc_id(doc_id, seen, start, count)
        count += 1
        yield doc_id, "\n".join(t.strip() for t in texts)
        pos = end + len(b"</DOC>")


def _parse_docs_jsonl(path: str) -> Iterator[tuple[str, str]]:
    seen: set[str] = set()
    count = 0
    offset = 0
    with open(path, "rb") as fh:
        for raw in fh:
            line = raw.decode("utf-8").strip()
            if line:
                try:
                    obj = json.loads(line)
                    doc_id, text = str(obj["id"]), str(obj["text"])
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise ParseError(f"malformed jsonl record ({exc})",
                                     byte_offset=offset, docs_parsed=count) from exc
                _check_doc_id(doc_id, seen, offset, count)
                count += 1
                yield doc_id, text
            offset += len(raw)


def load_documents(path: str, format: str,
                   pipeline: NormalizationPipeline) -> Iterator[Document]:
    """Parse and normalize a collection lazily, one Document per record.

    The format is checked at once; the file is read, and each record parsed
    and normalized, only as the iterator is consumed, so no list of the
    collection's documents is ever held.
    """
    return (Document(doc_id, tuple(normalize(text, pipeline)))
            for doc_id, text in parse_documents(path, format))


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
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                topic_id, title = str(obj["id"]), str(obj["title"])
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
            desc_terms = tuple(normalize(str(obj.get("desc", "")), pipeline))
            topics.append(Topic(topic_id, title_terms, desc_terms))
    return topics


def load_stopwords(path: str) -> frozenset[str]:
    """One stopword per line, lowercased; blank lines and # comments skipped."""
    words = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word = line.strip().lower()
            if word and not word.startswith("#"):
                words.add(word)
    return frozenset(words)
