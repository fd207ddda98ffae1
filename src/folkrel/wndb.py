"""Reading and writing WNdb 3.0 flat database files.

A database consists of an ``index.<pos>`` and a ``data.<pos>`` file per
part of speech.  Data lines are space-delimited fixed-layout records keyed
by an 8-digit decimal synset offset (the byte position of the line in the
file); index lines map a lowercase lemma to its synset offsets.  License
header lines start with a space and are skipped.

Every token of a record is validated, but only what taxonomic queries
read is kept, as columns: offsets, words and (synset, hypernym) offset
pairs.  Digit fields must be ASCII digits.  The writer emits
byte-valid files (true byte offsets, trailing double-space line endings)
and exists so toy fixtures and synthetic corpora ship in the exact format
the parser consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from string import hexdigits
from typing import Iterable

import numpy as np

POS_CHARS = {"noun": "n", "verb": "v", "adj": "a", "adv": "r"}
SS_TYPES = {"noun": ("n",), "verb": ("v",), "adj": ("a", "s"), "adv": ("r",)}
HYPERNYM_SYMBOLS = ("@", "@i")
POINTER_POS = frozenset("nvar")

_HEADER = "  1 Generated WNdb fixture data; not a real WordNet database.\n"
_FRAME_FIELDS = ("frame marker", "frame number", "frame word number")
_POINTER_FIELDS = ("pointer symbol", "pointer offset", "pointer pos",
                   "pointer source/target")


class WndbFormatError(ValueError):
    """Malformed record; carries the byte offset of the offending line."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"byte {byte_offset}: {message}")
        self.byte_offset = byte_offset


@dataclass(frozen=True)
class DataColumns:
    """A data.<pos> file as columns: one synset per entry, in file order."""

    offsets: np.ndarray  # int64 synset offsets
    words: list[tuple[str, ...]]  # lowercased, sense markers stripped
    hypernym_child: np.ndarray  # int64 offset of the synset holding the pointer
    hypernym_parent: np.ndarray  # int64 "@"/"@i" target, in file order


@dataclass(frozen=True)
class IndexColumns:
    """An index.<pos> file as columns: one lemma per line, in file order."""

    lemmas: list[str]  # lowercased
    counts: np.ndarray  # int64 number of synset offsets per lemma
    offsets: np.ndarray  # int64 synset offsets of every lemma, concatenated


def _digits(token: str) -> bool:
    # str.isdigit alone also accepts digits such as "²" or "١".
    return token.isascii() and token.isdigit()


def _is_offset(token: str) -> bool:
    return len(token) == 8 and _digits(token)


def _offset_error(token: str, at: int, what: str) -> WndbFormatError:
    return WndbFormatError(f"bad {what} {token!r}: expected 8-digit decimal", at)


def _truncated(what: str, at: int) -> WndbFormatError:
    return WndbFormatError(f"truncated record: expected {what}", at)


def _to_int64(tokens: list[str]) -> np.ndarray:
    return np.fromiter(map(int, tokens), np.int64, len(tokens))


def _pointer_error(tokens: list[str], first: int, end: int, at: int) -> WndbFormatError:
    """The first fault in the pointer fields ``tokens[first:end]``."""
    stop = min(end, len(tokens))
    for i in range(first, stop):
        field = (i - first) % 4
        if field == 1 and not _is_offset(tokens[i]):
            return _offset_error(tokens[i], at, "pointer offset")
        if field == 2 and tokens[i] not in POINTER_POS:
            return WndbFormatError(f"bad pointer pos {tokens[i]!r}", at)
    return _truncated(_POINTER_FIELDS[(stop - first) % 4], at)


def _strip_marker(word: str) -> str:
    # Adjective words may carry a syntactic marker suffix such as "(p)".
    if word.endswith(")") and "(" in word:
        return word[: word.rindex("(")]
    return word


def _records(data: bytes):
    """(byte offset, decoded line) of every record line; header lines
    start with a space and are skipped."""
    at = 0
    for raw in data.split(b"\n"):
        here = at
        at += len(raw) + 1
        if not raw or raw[0] == 32:
            continue
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WndbFormatError(f"invalid UTF-8: {exc}", here) from exc
        yield here, line


def parse_data(data: bytes, pos: str) -> DataColumns:
    """Parse a data.<pos> payload into columns, validating every field.

    Each line is split once and its fixed layout is checked by position;
    faults are reported in field order, with the line's byte offset.
    """
    allowed = SS_TYPES[pos]
    verb = pos == "verb"
    offsets: list[str] = []
    words: list[tuple[str, ...]] = []
    child: list[str] = []
    parent: list[str] = []
    for at, line in _records(data):
        head, sep, _gloss = line.partition(" | ")
        if not sep:
            raise WndbFormatError("missing gloss separator ' | '", at)
        t = head.split()
        n = len(t)
        if not n:
            raise _truncated("synset offset", at)
        offset = t[0]
        if not _is_offset(offset):
            raise _offset_error(offset, at, "synset offset")
        if n < 3:
            raise _truncated(("lex filenum", "ss type")[n - 1], at)
        if t[2] not in allowed:
            raise WndbFormatError(
                f"synset type {t[2]!r} not valid in a {pos} file", at)
        if n < 4:
            raise _truncated("word count", at)
        w_cnt = t[3]
        if not w_cnt.isascii() or w_cnt.strip(hexdigits):
            raise WndbFormatError(f"bad word count {w_cnt!r}", at)
        p_at = 4 + 2 * int(w_cnt, 16)
        if p_at == 4:
            raise WndbFormatError("synset must carry at least one word", at)
        if n <= p_at:  # words and lex ids alternate from index 4
            raise _truncated("pointer count" if n == p_at
                             else ("word", "lex id")[n % 2], at)
        p_cnt = t[p_at]
        if len(p_cnt) != 3 or not _digits(p_cnt):
            raise WndbFormatError(f"bad pointer count {p_cnt!r}", at)
        end = p_at + 1 + 4 * int(p_cnt)
        targets = t[p_at + 2:end:4]
        if n < end or not POINTER_POS.issuperset(t[p_at + 3:end:4]) or (
                targets and not (set(map(len, targets)) == {8}
                                 and _digits("".join(targets)))):
            raise _pointer_error(t, p_at + 1, end, at)
        if verb:
            if n == end:
                raise _truncated("frame count", at)
            f_cnt = t[end]
            if not _digits(f_cnt):
                raise WndbFormatError(f"bad frame count {f_cnt!r}", at)
            last = end + 1 + 3 * int(f_cnt)
            if n < last:
                raise _truncated(_FRAME_FIELDS[(n - end - 1) % 3], at)
            end = last
        if n > end:
            raise WndbFormatError(f"unexpected trailing tokens: {t[end:]!r}", at)
        offsets.append(offset)
        lemmas = t[4:p_at:2]
        if ")" in head:
            lemmas = map(_strip_marker, lemmas)
        words.append(tuple(map(str.lower, lemmas)))
        for symbol, target in zip(t[p_at + 1:end:4], targets):
            if symbol in HYPERNYM_SYMBOLS:
                child.append(offset)
                parent.append(target)
    return DataColumns(_to_int64(offsets), words, _to_int64(child),
                       _to_int64(parent))


def parse_index(data: bytes, pos: str) -> IndexColumns:
    """Parse an index.<pos> payload into (lemma, synset offsets) columns."""
    pos_char = POS_CHARS[pos]
    lemmas: list[str] = []
    counts: list[int] = []
    offsets: list[str] = []
    for at, line in _records(data):
        t = line.split()
        n = len(t)
        if n < 7:
            raise WndbFormatError("truncated index record", at)
        if t[1] != pos_char:
            raise WndbFormatError(
                f"index pos {t[1]!r} does not match file pos {pos_char!r}", at)
        if not (_digits(t[2]) and _digits(t[3])):
            raise WndbFormatError("bad synset or pointer count", at)
        synset_cnt = int(t[2])
        if synset_cnt < 1:
            raise WndbFormatError("lemma must map to at least one synset", at)
        first = 6 + int(t[3])  # lemma, pos, 2 counts, pointers, 2 sense counts
        if n - first != synset_cnt:
            raise WndbFormatError(f"expected {2 + synset_cnt} trailing fields, "
                                  f"got {max(n - first + 2, 0)}", at)
        synsets = t[first:]
        if not (set(map(len, synsets)) == {8} and _digits("".join(synsets))):
            bad = next(tok for tok in synsets if not _is_offset(tok))
            raise _offset_error(bad, at, "index offset")
        lemmas.append(t[0].lower())
        counts.append(synset_cnt)
        offsets += synsets
    return IndexColumns(lemmas, np.array(counts, dtype=np.int64),
                        _to_int64(offsets))


def read_database(index_path, data_path, pos: str) -> tuple[IndexColumns, DataColumns]:
    index = parse_index(Path(index_path).read_bytes(), pos)
    data = parse_data(Path(data_path).read_bytes(), pos)
    return index, data


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
