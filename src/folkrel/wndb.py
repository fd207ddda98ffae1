"""Reading and writing WNdb 3.0 flat database files.

A database consists of an ``index.<pos>`` and a ``data.<pos>`` file per
part of speech.  Data lines are space-delimited fixed-layout records keyed
by an 8-digit decimal synset offset (the byte position of the line in the
file); index lines map a lowercase lemma to its synset offsets.  License
header lines start with a space and are skipped.

Every token of a record is validated, but only what taxonomic queries
read is kept, as columns: a data file keeps its synset offsets, the
number of words of each synset and (synset, hypernym) offset pairs; an
index file keeps its lemmas, as one column of byte keys (`lemma_keys`:
normalized as tags are), and their synset offsets.  Digit fields must
be ASCII digits.  A file is decoded in blocks of about ``_BLOCK`` bytes
cut at line ends (line by line if a block does not decode, as header
lines are skipped undecoded); each record line is split once and gated
by its layout (count fields through lookup tables), and per block the
offset, target and pointer pos columns are checked and converted in
bulk.  A file that fails any of this is re-walked line by line, and one
checker per file kind raises its first fault, in field order, with the
byte offset of its line.

The writer emits byte-valid files (true byte offsets, trailing
double-space line endings) and exists so toy fixtures and synthetic
corpora ship in the exact format the parser consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from pathlib import Path
from string import digits, hexdigits
from typing import Iterable, NoReturn

import numpy as np

from .core import normalize_tag

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
    """A data.<pos> file as columns: one synset per entry, in file order;
    of a synset's words only their number is kept."""

    offsets: np.ndarray  # int64 synset offsets
    words: np.ndarray  # int64 number of words of each synset
    hypernym_child: np.ndarray  # int64 offset of the synset holding the pointer
    hypernym_parent: np.ndarray  # int64 "@"/"@i" target, in file order


@dataclass(frozen=True)
class IndexColumns:
    """An index.<pos> file as columns: one lemma per line, in file order."""

    lemmas: np.ndarray  # bytes keys of the lemmas, as `lemma_keys` makes them
    counts: np.ndarray  # int64 number of synset offsets per lemma
    offsets: np.ndarray  # int64 synset offsets of every lemma, concatenated


KEY_END = b"\xff"  # no UTF-8 byte: keys ending in NUL stay distinct


def lemma_keys(lemmas: Iterable[str]) -> np.ndarray:
    """The lemmas as a numpy bytes column of index keys: each normalized as
    tags are (`normalize_tag`), UTF-8 encoded and ended by `KEY_END`."""
    return np.array([normalize_tag(lemma).encode("utf-8", "surrogatepass")
                     + KEY_END for lemma in lemmas], dtype=np.bytes_)


def key_text(key: bytes) -> str:
    """The lemma of one key of `lemma_keys`."""
    return key[:-1].decode("utf-8", "surrogatepass")


def _digits(token: str) -> bool:
    # str.isdigit alone also accepts digits such as "²" or "١".
    return token.isascii() and token.isdigit()


def _is_offset(token: str) -> bool:
    return len(token) == 8 and _digits(token)


def _offset_error(token: str, at: int, what: str) -> WndbFormatError:
    return WndbFormatError(f"bad {what} {token!r}: expected 8-digit decimal", at)


def _truncated(what: str, at: int) -> WndbFormatError:
    return WndbFormatError(f"truncated record: expected {what}", at)


class _Counts(dict):
    """Count field -> value, or -1 if the field is not a valid count.

    Holds every field of the given widths, so one lookup both validates
    and converts a count; longer fields are checked on a miss.
    """

    def __init__(self, chars: str, base: int, widths: tuple[int, ...]):
        forms = ("".join(p) for w in widths for p in product(chars, repeat=w))
        super().__init__((form, int(form, base)) for form in forms)
        self.chars, self.base = chars, base

    def __missing__(self, token: str) -> int:
        if not token.isascii() or token.strip(self.chars):
            return -1
        try:
            return int(token, self.base)
        except ValueError:  # past int's digit limit: the re-walk names it
            return -1


_DECIMAL = _Counts(digits, 10, (1, 2, 3))
_HEX = _Counts(hexdigits, 16, (2,))
_POINTER_COUNTS = {f"{i:03d}": i for i in range(1000)}  # exactly 3 digits
_HYPERNYM = frozenset(HYPERNYM_SYMBOLS).__contains__
_POWERS = 10 ** np.arange(7, -1, -1, dtype=np.int64)
_BLOCK = 256 << 10  # bytes per column block: bounds the strings held at once


def _offset_values(tokens: list[str]) -> np.ndarray | None:
    """int64 values of 8-ASCII-digit tokens, or None if one is not."""
    if not tokens:
        return np.zeros(0, np.int64)
    joined = "".join(tokens)
    if set(map(len, tokens)) != {8} or not _digits(joined):
        return None
    return (np.frombuffer(joined.encode("ascii"), np.uint8).reshape(-1, 8)
            - 48) @ _POWERS


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


def _check_data_line(line: str, pos: str, at: int) -> None:
    """Raise the first fault of a data line, in field order."""
    head, sep, _gloss = line.partition(" | ")
    if not sep:
        raise WndbFormatError("missing gloss separator ' | '", at)
    t = head.split()
    n = len(t)
    if not n:
        raise _truncated("synset offset", at)
    if not _is_offset(t[0]):
        raise _offset_error(t[0], at, "synset offset")
    if n < 3:
        raise _truncated(("lex filenum", "ss type")[n - 1], at)
    if t[2] not in SS_TYPES[pos]:
        raise WndbFormatError(f"synset type {t[2]!r} not valid in a {pos} file", at)
    if n < 4:
        raise _truncated("word count", at)
    if _HEX[t[3]] < 0:
        raise WndbFormatError(f"bad word count {t[3]!r}", at)
    p_at = 4 + 2 * _HEX[t[3]]
    if p_at == 4:
        raise WndbFormatError("synset must carry at least one word", at)
    if n <= p_at:  # words and lex ids alternate from index 4
        raise _truncated("pointer count" if n == p_at
                         else ("word", "lex id")[n % 2], at)
    if t[p_at] not in _POINTER_COUNTS:
        raise WndbFormatError(f"bad pointer count {t[p_at]!r}", at)
    end = p_at + 1 + 4 * _POINTER_COUNTS[t[p_at]]
    stop = min(end, n)
    for i in range(p_at + 1, stop):
        field = (i - p_at - 1) % 4
        if field == 1 and not _is_offset(t[i]):
            raise _offset_error(t[i], at, "pointer offset")
        if field == 2 and t[i] not in POINTER_POS:
            raise WndbFormatError(f"bad pointer pos {t[i]!r}", at)
    if n < end:
        raise _truncated(_POINTER_FIELDS[(stop - p_at - 1) % 4], at)
    if pos == "verb":
        if n == end:
            raise _truncated("frame count", at)
        if not _digits(t[end]):
            raise WndbFormatError(f"bad frame count {t[end]!r}", at)
        f_cnt = _DECIMAL[t[end]]  # -1 past int()'s digit limit: cannot fit
        last = end + 1 + 3 * f_cnt if f_cnt >= 0 else n + 1
        if n < last:
            raise _truncated(_FRAME_FIELDS[(n - end - 1) % 3], at)
        end = last
    if n > end:
        raise WndbFormatError(f"unexpected trailing tokens: {t[end:]!r}", at)


def _check_index_line(line: str, pos: str, at: int) -> None:
    """Raise the first fault of an index line, in field order."""
    t = line.split()
    n = len(t)
    if n < 7:
        raise WndbFormatError("truncated index record", at)
    if t[1] != POS_CHARS[pos]:
        raise WndbFormatError(
            f"index pos {t[1]!r} does not match file pos {POS_CHARS[pos]!r}", at)
    if not (_digits(t[2]) and _digits(t[3])):
        raise WndbFormatError("bad synset or pointer count", at)
    synset_cnt, p_cnt = _DECIMAL[t[2]], _DECIMAL[t[3]]
    if synset_cnt < 0 or p_cnt < 0:
        raise WndbFormatError("synset or pointer count past int()'s digit limit", at)
    if synset_cnt < 1:
        raise WndbFormatError("lemma must map to at least one synset", at)
    first = 6 + p_cnt  # lemma, pos, 2 counts, pointers, 2 sense counts
    if n - first != synset_cnt:
        raise WndbFormatError(f"expected {2 + synset_cnt} trailing fields, "
                              f"got {max(n - first + 2, 0)}", at)
    for token in t[first:]:
        if not _is_offset(token):
            raise _offset_error(token, at, "index offset")


def _first_fault(data: bytes, pos: str, check) -> NoReturn:
    """Re-walk a payload the fast pass rejected and raise its first fault,
    with the byte offset of its line."""
    for at, line in _records(data):
        check(line, pos, at)
    raise AssertionError(f"{check.__name__} finds no fault the fast pass saw")


def _data_block(lines: list[str], pos: str):
    """(offsets, word counts, hypernym child, hypernym parent) of a block of
    data lines, or None if the fast pass rejects one of them."""
    allowed = SS_TYPES[pos]
    verb = pos == "verb"
    offsets: list[str] = []
    words: list[int] = []
    symbols: list[str] = []
    targets: list[str] = []
    target_pos: list[str] = []
    pointer_counts: list[int] = []
    for line in lines:
        if not line or line[0] == " ":
            continue
        head, sep, _gloss = line.partition(" | ")
        t = head.split()
        n = len(t)
        if not sep or n < 7 or t[2] not in allowed:
            return None
        w_cnt = _HEX[t[3]]
        p_at = 4 + 2 * w_cnt
        if p_at < 6 or n <= p_at or t[p_at] not in _POINTER_COUNTS:
            return None
        p_cnt = _POINTER_COUNTS[t[p_at]]
        p_end = end = p_at + 1 + 4 * p_cnt
        if verb:
            f_cnt = _DECIMAL[t[end]] if n > end else -1
            if f_cnt < 0:
                return None
            end += 1 + 3 * f_cnt
        if n != end:
            return None
        offsets.append(t[0])
        words.append(w_cnt)
        if p_cnt:
            symbols += t[p_at + 1:p_end:4]
            targets += t[p_at + 2:p_end:4]
            target_pos += t[p_at + 3:p_end:4]
        pointer_counts.append(p_cnt)
    synsets = _offset_values(offsets)
    parents = _offset_values(targets)
    if synsets is None or parents is None or not POINTER_POS.issuperset(target_pos):
        return None
    hypernym = np.fromiter(map(_HYPERNYM, symbols), bool, len(symbols))
    return (synsets, np.array(words, dtype=np.int64),
            np.repeat(synsets, pointer_counts)[hypernym], parents[hypernym])


def _index_block(lines: list[str], pos: str):
    """(lemma keys, synset counts, offsets) of a block of index lines, or
    None if the fast pass rejects one of them."""
    pos_char = POS_CHARS[pos]
    lemmas: list[str] = []
    counts: list[int] = []
    offsets: list[str] = []
    for line in lines:
        if not line or line[0] == " ":
            continue
        t = line.split()
        if len(t) < 7 or t[1] != pos_char:
            return None
        synset_cnt = _DECIMAL[t[2]]
        first = 6 + _DECIMAL[t[3]]  # lemma, pos, 2 counts, pointers, 2 sense counts
        if synset_cnt < 1 or first < 6 or len(t) - first != synset_cnt:
            return None
        lemmas.append(t[0])
        counts.append(synset_cnt)
        offsets += t[first:]
    synsets = _offset_values(offsets)
    if synsets is None:
        return None
    return lemma_keys(lemmas), np.array(counts, dtype=np.int64), synsets


def _columns(data: bytes, pos: str, block, check) -> list[tuple]:
    """``block`` of the lines of every run of about ``_BLOCK`` bytes of a
    payload, cut after a "\n"; if a block or the decode of a record line is
    rejected, ``check`` names the first fault."""
    blocks = []
    start = 0
    while not blocks or start < len(data):  # an empty payload is one block
        end = data.find(b"\n", start + _BLOCK - 1) + 1 or len(data)
        chunk = data[start:end]
        try:
            lines = chunk.decode("utf-8").split("\n")
        except UnicodeDecodeError:  # maybe only in header lines, which are skipped
            try:
                lines = [line for _, line in _records(chunk)]
            except WndbFormatError:  # a record line: a fault before it comes first
                _first_fault(data, pos, check)
        columns = block(lines, pos)
        if columns is None:
            _first_fault(data, pos, check)
        blocks.append(columns)
        start = end
    return blocks


def parse_data(data: bytes, pos: str) -> DataColumns:
    """Parse a data.<pos> payload into columns, validating every field."""
    offsets, words, child, parent = zip(*_columns(data, pos, _data_block,
                                                  _check_data_line))
    return DataColumns(np.concatenate(offsets), np.concatenate(words),
                       np.concatenate(child), np.concatenate(parent))


def parse_index(data: bytes, pos: str) -> IndexColumns:
    """Parse an index.<pos> payload into (lemma, synset offsets) columns,
    validating every field."""
    lemmas, counts, offsets = zip(*_columns(data, pos, _index_block,
                                            _check_index_line))
    return IndexColumns(np.concatenate(lemmas), np.concatenate(counts),
                        np.concatenate(offsets))


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
