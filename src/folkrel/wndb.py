"""Reading and writing WNdb 3.0 flat database files.

A database consists of an ``index.<pos>`` and a ``data.<pos>`` file per
part of speech.  Data lines are space-delimited fixed-layout records keyed
by an 8-digit decimal synset offset (the byte position of the line in the
file); index lines map a lowercase lemma to its synset offsets.  License
header lines start with a space and are skipped.

Only the structure needed for taxonomic queries is retained: words,
pointer symbols with their targets, and the synset type.  The writer emits
byte-valid files (true byte offsets, trailing double-space line endings)
and exists so toy fixtures and synthetic corpora ship in the exact format
the parser consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

POS_CHARS = {"noun": "n", "verb": "v", "adj": "a", "adv": "r"}
SS_TYPES = {"noun": ("n",), "verb": ("v",), "adj": ("a", "s"), "adv": ("r",)}
HYPERNYM_SYMBOLS = ("@", "@i")

_HEADER = "  1 Generated WNdb fixture data; not a real WordNet database.\n"


class WndbFormatError(ValueError):
    """Malformed record; carries the byte offset of the offending line."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"byte {byte_offset}: {message}")
        self.byte_offset = byte_offset


@dataclass(frozen=True)
class Pointer:
    symbol: str
    target: int
    pos: str
    source_target: str


@dataclass(frozen=True)
class DataRecord:
    offset: int
    ss_type: str
    words: tuple[str, ...]  # lowercased, sense markers stripped
    pointers: tuple[Pointer, ...]

    def hypernyms(self) -> tuple[int, ...]:
        return tuple(p.target for p in self.pointers if p.symbol in HYPERNYM_SYMBOLS)


@dataclass(frozen=True)
class IndexRecord:
    lemma: str
    pos: str
    offsets: tuple[int, ...]


def _lines_with_offsets(data: bytes) -> Iterator[tuple[int, bytes]]:
    offset = 0
    for line in data.split(b"\n"):
        yield offset, line
        offset += len(line) + 1


def _parse_offset(token: str, at: int, what: str) -> int:
    if len(token) != 8 or not token.isdigit():
        raise WndbFormatError(f"bad {what} {token!r}: expected 8-digit decimal", at)
    return int(token)


def _strip_marker(word: str) -> str:
    # Adjective words may carry a syntactic marker suffix such as "(p)".
    if word.endswith(")") and "(" in word:
        return word[: word.rindex("(")]
    return word


def parse_data(data: bytes, pos: str) -> list[DataRecord]:
    """Parse a data.<pos> payload into records, validating field layout."""
    allowed = SS_TYPES[pos]
    records: list[DataRecord] = []
    for at, raw in _lines_with_offsets(data):
        if not raw or raw.startswith(b" "):
            continue
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WndbFormatError(f"invalid UTF-8: {exc}", at) from exc
        head, sep, _gloss = line.partition(" | ")
        if not sep:
            raise WndbFormatError("missing gloss separator ' | '", at)
        tokens = head.split()
        pos_in_line = 0

        def take(what: str) -> str:
            nonlocal pos_in_line
            if pos_in_line >= len(tokens):
                raise WndbFormatError(f"truncated record: expected {what}", at)
            token = tokens[pos_in_line]
            pos_in_line += 1
            return token

        offset = _parse_offset(take("synset offset"), at, "synset offset")
        take("lex filenum")
        ss_type = take("ss type")
        if ss_type not in allowed:
            raise WndbFormatError(
                f"synset type {ss_type!r} not valid in a {pos} file", at)
        w_cnt_token = take("word count")
        try:
            w_cnt = int(w_cnt_token, 16)
        except ValueError:
            raise WndbFormatError(f"bad word count {w_cnt_token!r}", at) from None
        if w_cnt < 1:
            raise WndbFormatError("synset must carry at least one word", at)
        words = []
        for _ in range(w_cnt):
            words.append(_strip_marker(take("word")).lower())
            take("lex id")
        p_cnt_token = take("pointer count")
        if len(p_cnt_token) != 3 or not p_cnt_token.isdigit():
            raise WndbFormatError(f"bad pointer count {p_cnt_token!r}", at)
        pointers = []
        for _ in range(int(p_cnt_token)):
            symbol = take("pointer symbol")
            target = _parse_offset(take("pointer offset"), at, "pointer offset")
            ptr_pos = take("pointer pos")
            if ptr_pos not in ("n", "v", "a", "r"):
                raise WndbFormatError(f"bad pointer pos {ptr_pos!r}", at)
            pointers.append(Pointer(symbol, target, ptr_pos, take("pointer source/target")))
        if pos == "verb":
            f_cnt_token = take("frame count")
            if not f_cnt_token.isdigit():
                raise WndbFormatError(f"bad frame count {f_cnt_token!r}", at)
            for _ in range(int(f_cnt_token)):
                take("frame marker")
                take("frame number")
                take("frame word number")
        if pos_in_line != len(tokens):
            raise WndbFormatError(
                f"unexpected trailing tokens: {tokens[pos_in_line:]!r}", at)
        records.append(DataRecord(offset, ss_type, tuple(words), tuple(pointers)))
    return records


def parse_index(data: bytes, pos: str) -> list[IndexRecord]:
    """Parse an index.<pos> payload into (lemma, offsets) records."""
    pos_char = POS_CHARS[pos]
    valid_chars = {"n", "v", "a", "r"}
    records: list[IndexRecord] = []
    for at, raw in _lines_with_offsets(data):
        if not raw or raw.startswith(b" "):
            continue
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WndbFormatError(f"invalid UTF-8: {exc}", at) from exc
        tokens = line.split()
        if len(tokens) < 7:
            raise WndbFormatError("truncated index record", at)
        lemma = tokens[0].lower()
        line_pos = tokens[1]
        if line_pos not in valid_chars or line_pos != pos_char:
            raise WndbFormatError(
                f"index pos {line_pos!r} does not match file pos {pos_char!r}", at)
        try:
            synset_cnt = int(tokens[2])
            p_cnt = int(tokens[3])
        except ValueError:
            raise WndbFormatError("bad synset or pointer count", at) from None
        if synset_cnt < 1:
            raise WndbFormatError("lemma must map to at least one synset", at)
        rest = tokens[4 + p_cnt:]
        if len(rest) != 2 + synset_cnt:
            raise WndbFormatError(
                f"expected {2 + synset_cnt} trailing fields, got {len(rest)}", at)
        offsets = tuple(_parse_offset(tok, at, "index offset") for tok in rest[2:])
        records.append(IndexRecord(lemma, line_pos, offsets))
    return records


def read_database(index_path, data_path, pos: str) -> tuple[list[IndexRecord], list[DataRecord]]:
    index_records = parse_index(Path(index_path).read_bytes(), pos)
    data_records = parse_data(Path(data_path).read_bytes(), pos)
    return index_records, data_records


# -- fixture / corpus writer -------------------------------------------


@dataclass(frozen=True)
class SynsetSpec:
    """One synset for the writer, keyed symbolically instead of by offset."""

    key: str
    lemmas: tuple[str, ...]
    parents: tuple[str, ...] = ()
    gloss: str = "generated synset"


def render_database(specs: Iterable[SynsetSpec], pos: str) -> tuple[bytes, bytes]:
    """Render (index bytes, data bytes) with true byte offsets."""
    specs = list(specs)
    pos_char = POS_CHARS[pos]
    keys = [s.key for s in specs]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate synset keys")
    known = set(keys)
    children: dict[str, list[str]] = {k: [] for k in keys}
    for spec in specs:
        for parent in spec.parents:
            if parent not in known:
                raise ValueError(f"unknown parent key {parent!r} for {spec.key!r}")
            children[parent].append(spec.key)

    def render_line(spec: SynsetSpec, offsets: dict[str, int]) -> str:
        def off(key: str) -> str:
            return f"{offsets.get(key, 0):08d}"

        tokens = [off(spec.key), "03", pos_char, f"{len(spec.lemmas):02x}"]
        for lemma in spec.lemmas:
            tokens += [lemma, "0"]
        pointers = [("@", p) for p in spec.parents]
        pointers += [("~", c) for c in children[spec.key]]
        tokens.append(f"{len(pointers):03d}")
        for symbol, key in pointers:
            tokens += [symbol, off(key), pos_char, "0000"]
        if pos == "verb":
            tokens.append("00")
        return " ".join(tokens) + " | " + spec.gloss + "  \n"

    # First pass with placeholder offsets fixes the layout (all offset
    # fields are 8 characters wide), second pass fills in real positions.
    offsets: dict[str, int] = {}
    position = len(_HEADER.encode("utf-8"))
    for spec in specs:
        offsets[spec.key] = position
        position += len(render_line(spec, {}).encode("utf-8"))
    data_text = _HEADER + "".join(render_line(spec, offsets) for spec in specs)

    parents = {spec.key: spec.parents for spec in specs}
    lemma_map: dict[str, list[str]] = {}
    for spec in specs:
        for lemma in spec.lemmas:
            lemma_map.setdefault(lemma.lower(), []).append(spec.key)
    index_lines = [_HEADER]
    for lemma in sorted(lemma_map):
        lemma_keys = lemma_map[lemma]
        symbols = sorted(
            {"@" for k in lemma_keys if parents[k]}
            | {"~" for k in lemma_keys if children[k]}
        )
        tokens = [lemma, pos_char, str(len(lemma_keys)), str(len(symbols))]
        tokens += symbols
        tokens += [str(len(lemma_keys)), "0"]
        tokens += [f"{offsets[k]:08d}" for k in lemma_keys]
        index_lines.append(" ".join(tokens) + "  \n")
    return "".join(index_lines).encode("utf-8"), data_text.encode("utf-8")


def write_database(specs: Iterable[SynsetSpec], pos: str, directory) -> tuple[Path, Path]:
    """Write index.<pos>/data.<pos> files into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index_bytes, data_bytes = render_database(specs, pos)
    index_path = directory / f"index.{pos}"
    data_path = directory / f"data.{pos}"
    index_path.write_bytes(index_bytes)
    data_path.write_bytes(data_bytes)
    return index_path, data_path
