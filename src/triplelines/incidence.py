"""Arrangements of lines: intersection profiles, t-vectors, incidence tables.

The intersection profile of s distinct lines assigns to every point where at
least two of them meet its multiplicity m (number of arrangement lines through
it); t_k counts the points with multiplicity exactly k. The combinatorial
identity C(s,2) = sum_k t_k * C(k,2) holds for every profile by construction
and is checked on computation.

Also houses the field-free view of an arrangement (blocks of concurrent line
indices) with a backtracking isomorphism test, and the JSON arrangement file
format used by the CLI.
"""

from __future__ import annotations

import itertools
import json
from array import array
from collections import Counter
from math import comb
from operator import add, lt, mul, setitem
from typing import NamedTuple, Optional, Sequence

from .errors import IndexOutOfRange, UnknownLabel
from .field import FieldElement, FieldSpec, make_field
from .projective import ProjLine, ProjPoint, _cross_key, incident


class Arrangement:
    """An ordered set of s >= 1 pairwise distinct lines with optional labels."""

    def __init__(self, field: FieldSpec, lines: Sequence[ProjLine],
                 labels: Optional[Sequence[str]] = None):
        lines = tuple(lines)
        if not lines:
            raise ValueError("an arrangement needs at least one line")
        for L in lines:
            if L.field != field:
                raise ValueError(f"line {L!r} does not live in {field!r}")
        if len(set(lines)) != len(lines):
            raise ValueError("arrangement lines must be pairwise distinct")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != len(lines):
                raise ValueError("one label per line expected")
        self.field = field
        self.lines = lines
        self.labels = labels

    @property
    def s(self) -> int:
        return len(self.lines)

    def label_of(self, i: int) -> str:
        return self.labels[i] if self.labels else f"L{i + 1}"

    def __repr__(self) -> str:
        return f"Arrangement({self.field!r}, s={self.s})"


class IntersectionProfile(NamedTuple):
    """The lines through each point where at least two of them meet.

    Points are listed in ascending order and t-vector keys k ascending, so
    every report built from a profile is deterministic.
    """

    s: int
    lines_through: dict  # ProjPoint -> ascending tuple of line indices, >= 2
    points: dict         # ProjPoint -> multiplicity >= 2
    tvec: dict           # k -> t_k

    def t(self, k: int) -> int:
        return self.tvec.get(k, 0)

    def triple_count(self, metric: str = "exact3") -> int:
        """Number of triple points: multiplicity exactly 3, or at least 3."""
        if metric == "exact3":
            return self.t(3)
        if metric == "atleast3":
            return sum(t for k, t in self.tvec.items() if k >= 3)
        raise ValueError(f"unknown metric {metric!r}")


def profile(A: Arrangement) -> IntersectionProfile:
    """Collect the two line indices of every pairwise meet at its point.

    Meets are computed and grouped as index triples over the field tables;
    a ProjPoint is built once per distinct point. Points order by their
    index triples, so sorting the triples orders the points.
    """
    F = A.field
    keys = [L.key() for L in A.lines]
    through: dict[tuple, set[int]] = {}
    for (i, a), (j, b) in itertools.combinations(enumerate(keys), 2):
        through.setdefault(_cross_key(F, a, b), set()).update((i, j))
    lines_through = {ProjPoint._from_key(F, key): tuple(sorted(through[key]))
                     for key in sorted(through)}
    points = {P: len(ix) for P, ix in lines_through.items()}
    tvec = dict(sorted(Counter(points.values()).items()))
    if not check_identity(A.s, tvec):
        raise RuntimeError(f"pair-count identity violated by t-vector {tvec}")
    return IntersectionProfile(A.s, lines_through, points, tvec)


def check_identity(s: int, tvec: dict) -> bool:
    """C(s,2) == sum_k t_k * C(k,2)."""
    return comb(s, 2) == sum(t * comb(k, 2) for k, t in tvec.items())


class LineParity(NamedTuple):
    label: str
    point_multiplicities: tuple
    identity_holds: bool       # s - 1 == sum (m_i - 1) over points on the line
    only_triple_points: bool


class ParityReport(NamedTuple):
    s: int
    rows: tuple
    all_pass: bool
    lines_with_only_triples: tuple


def parity_check(A: Arrangement, prof: Optional[IntersectionProfile] = None) -> ParityReport:
    """Per-line identity s-1 = sum over its profile points of (m_i - 1)."""
    prof = prof or profile(A)
    mults = [[] for _ in A.lines]
    for ix in prof.lines_through.values():
        for i in ix:
            mults[i].append(len(ix))
    rows = []
    only_triples = []
    for i, on_line in enumerate(mults):
        ms = tuple(sorted(on_line))
        holds = (A.s - 1) == sum(m - 1 for m in ms)
        only3 = bool(ms) and all(m == 3 for m in ms)
        if only3:
            only_triples.append(A.label_of(i))
        rows.append(LineParity(A.label_of(i), ms, holds, only3))
    return ParityReport(A.s, tuple(rows), all(r.identity_holds for r in rows),
                        tuple(only_triples))


class IncidenceTable(NamedTuple):
    row_labels: tuple
    col_labels: tuple
    cells: tuple  # tuple of tuples of bool

    def cell(self, row_label: str, col_label: str) -> bool:
        try:
            i = self.row_labels.index(row_label)
            j = self.col_labels.index(col_label)
        except ValueError as exc:
            raise UnknownLabel(str(exc)) from exc
        return self.cells[i][j]

    def to_csv(self) -> str:
        lines = ["," + ",".join(self.col_labels)]
        for label, row in zip(self.row_labels, self.cells):
            lines.append(label + "," + ",".join("+" if c else "" for c in row))
        return "\n".join(lines) + "\n"


def table(A: Arrangement,
          points: Optional[Sequence[tuple[str, ProjPoint]]] = None) -> IncidenceTable:
    """Incidence table of the arrangement against its profile points.

    Columns default to all intersection points in ascending order, read from
    the profile; callers may pass labelled points instead, which are tested
    against every line.
    """
    row_labels = tuple(A.label_of(i) for i in range(A.s))
    if points is None:
        columns = list(profile(A).lines_through.values())
        col_labels = tuple(f"P{j + 1}" for j in range(len(columns)))
        cells = tuple(tuple(i in ix for ix in columns) for i in range(A.s))
    else:
        col_labels = tuple(label for label, _ in points)
        cells = tuple(tuple(incident(P, L) for _, P in points) for L in A.lines)
    return IncidenceTable(row_labels, col_labels, cells)


def remove_line(A: Arrangement, index: int) -> Arrangement:
    if not (0 <= index < A.s):
        raise IndexOutOfRange(f"line index {index} out of range for s={A.s}")
    if A.s == 1:
        raise IndexOutOfRange("removing the only line would leave an empty arrangement")
    lines = A.lines[:index] + A.lines[index + 1:]
    labels = None
    if A.labels:
        labels = A.labels[:index] + A.labels[index + 1:]
    return Arrangement(A.field, lines, labels)


# ---------------------------------------------------------------------------
# field-free incidence structure and isomorphism testing
# ---------------------------------------------------------------------------

class AbstractIncidence:
    """Blocks of line indices, one per intersection point of multiplicity >= 2.

    A block holds at least two line indices in strictly increasing order. A
    partial linear space: two line indices share at most one block. The
    blocks are stored by column in `runs`, a tuple with one entry per run of
    consecutive blocks of one size k: the k array('i') columns of the run
    (first members, second members, ...), all of one length. Block indices
    count through the runs in order.

    AbstractIncidence(n, blocks) takes a tuple of int tuples and splits it
    into runs wherever the size changes; from_runs(n, runs) takes the
    columns as they are. Both go through one check of the columns: each
    column element-wise below the next, the first column's min >= 0 and the
    last column's max < n, and every pair u < v of a block marked in one
    n*n byte table, which shows a pair held twice. The check also derives
    `signature` (per line, the (size, count) pairs of the blocks through it
    in ascending size), which isomorphic() reads. The n x n pair-block
    matrix `pair` (rows are array('i'); pair[u][v] is the index of the block
    holding lines u and v, -1 for none) is built from the columns the first
    time it is read; only isomorphic() reads it. `blocks` rebuilds the
    tuples on each read.
    """

    __slots__ = ("num_lines", "runs", "signature", "_pair")

    def __init__(self, num_lines: int, blocks: tuple):
        # a list could change after the checks and no longer match `pair`
        if type(blocks) is not tuple:
            raise ValueError("blocks must be a tuple of strictly increasing tuples, "
                             f"not a {type(blocks).__name__}")
        # array('i') would take True as 1
        if not ({*map(type, blocks)} <= {tuple}
                and {*map(type, itertools.chain.from_iterable(blocks))} <= {int}):
            raise _not_increasing(blocks)
        try:
            runs = tuple(tuple(array("i", col) for col in zip(*run))
                         for _, run in itertools.groupby(blocks, len))
        except OverflowError:
            raise ValueError("block indices out of range") from None
        self._check(num_lines, runs)

    @classmethod
    def from_runs(cls, num_lines: int, runs: tuple) -> AbstractIncidence:
        """The blocks given by column, as `runs` holds them. The columns are
        kept, not copied, so they must not change afterwards."""
        if not all(type(c) is array and c.typecode == "i" for cols in runs for c in cols):
            raise ValueError("runs must hold array('i') columns")
        self = cls.__new__(cls)
        self._check(num_lines, runs)
        return self

    def _check(self, n: int, runs: tuple) -> None:
        """Check the runs as the class docstring says, then keep them."""
        seen = bytearray(n * n)     # 1 at u*n + v for each pair u < v held by a block
        pairs = 0                   # pairs held, counted with repeats
        through = {}                # block size -> Counter of the lines on such blocks
        for cols in runs:
            k = len(cols)
            if k < 2:
                raise ValueError("blocks record concurrences of at least two lines")
            if len({*map(len, cols)}) != 1:
                raise ValueError("the columns of a run differ in length")
            if not all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:])):
                raise _not_increasing(tuple(zip(*cols)))
            # checked before the table is touched: an index of -1 would wrap around it
            if min(cols[0], default=0) < 0 or max(cols[-1], default=-1) >= n:
                raise ValueError("block indices out of range")
            for a, b in itertools.combinations(cols, 2):
                positions = map(add, map(mul, a, itertools.repeat(n)), b)
                any(map(setitem, itertools.repeat(seen), positions, itertools.repeat(1)))
            pairs += len(cols[0]) * comb(k, 2)
            through.setdefault(k, Counter()).update(itertools.chain.from_iterable(cols))
        if seen.count(1) != pairs:
            # also catches a block listed twice
            raise ValueError("two lines meet in more than one block")
        signature = [()] * n
        for k in sorted(through):
            for u, count in through[k].items():
                signature[u] += ((k, count),)
        self.num_lines = n
        self.runs = runs
        self.signature = signature
        self._pair = None

    @property
    def blocks(self) -> tuple:
        return tuple(itertools.chain.from_iterable(zip(*cols) for cols in self.runs))

    @property
    def pair(self) -> list:
        if self._pair is None:
            n = self.num_lines
            # a row of C ints holds no int objects for block indices above 256
            pair = [array("i", [-1]) * n for _ in range(n)]
            first = 0               # index of the run's first block
            for cols in self.runs:
                for a, b in itertools.combinations(cols, 2):
                    for k, u, v in zip(itertools.count(first), a, b):
                        pair[u][v] = pair[v][u] = k
                first += len(cols[0])
            self._pair = pair
        return self._pair


def _not_increasing(blocks: tuple) -> ValueError:
    """The error naming the first block that is not a strictly increasing
    tuple of ints; blocks holds one."""
    for b in blocks:
        if (type(b) is not tuple or not {*map(type, b)} <= {int}
                or any(u >= v for u, v in zip(b, b[1:]))):
            return ValueError(f"block {b!r} is not a strictly increasing tuple")


def abstract(A: Arrangement, prof: Optional[IntersectionProfile] = None) -> AbstractIncidence:
    prof = prof or profile(A)
    # lines_through holds ascending index tuples, which are the blocks as they are
    ordered = sorted(prof.lines_through.values(), key=lambda ix: (len(ix), ix))
    return AbstractIncidence(A.s, tuple(ordered))


def isomorphic(X: AbstractIncidence, Y: AbstractIncidence) -> bool:
    """Line-relabelling equivalence, by backtracking on the pair-block matrix.

    Two lines share at most one block, so a line bijection is an
    isomorphism exactly when, for every pair, the blocks holding {u, v} and
    {map(u), map(v)} have the same size (0 for none) and all pairs of one X
    block land in one Y block. Distinct X blocks then land in distinct Y
    blocks; checking that as well cuts dead branches sooner. Each new line
    is checked against the lines mapped before it.
    """
    if X.num_lines != Y.num_lines:
        return False
    # block sizes, with a trailing 0 read by the index -1 of an unshared pair
    size_x = [len(cols) for cols in X.runs for _ in cols[0]] + [0]
    size_y = [len(cols) for cols in Y.runs for _ in cols[0]] + [0]
    if sorted(size_x) != sorted(size_y):
        return False
    sig_x, sig_y = X.signature, Y.signature
    if sorted(sig_x) != sorted(sig_y):
        return False

    n = X.num_lines
    pair_x, pair_y = X.pair, Y.pair
    # map most-constrained lines first: most blocks, then the ascending list
    # of block sizes, which the pairs (size, -count) order alike
    order = sorted(range(n), key=lambda i: (-sum(c for _, c in sig_x[i]),
                                            [(k, -c) for k, c in sig_x[i]]))
    mapping = [-1] * n
    used = [False] * n
    image = [-1] * (len(size_x) - 1)      # X block -> Y block
    preimage = [-1] * (len(size_y) - 1)

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        i = order[pos]
        row_x = pair_x[i]
        for j in range(n):
            if used[j] or sig_x[i] != sig_y[j]:
                continue
            row_y = pair_y[j]
            assigned = []
            for u in order[:pos]:
                bx, by = row_x[u], row_y[mapping[u]]
                if size_x[bx] != size_y[by]:
                    break
                if bx >= 0 and image[bx] != by:
                    if image[bx] >= 0 or preimage[by] >= 0:
                        break
                    image[bx], preimage[by] = by, bx
                    assigned.append(bx)
            else:
                mapping[i] = j
                used[j] = True
                if extend(pos + 1):
                    return True
                used[j] = False
            for bx in assigned:
                preimage[image[bx]] = -1
                image[bx] = -1
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# arrangement files
# ---------------------------------------------------------------------------

def element_to_json(e: FieldElement):
    """An integer in a prime field, a coefficient list in an extension field."""
    return e.index if e.field.k == 1 else list(e.coeffs)


def element_from_json(F: FieldSpec, value, what: str) -> FieldElement:
    """The element written as an integer in 0..p-1 (a constant) or as a list
    of at most k such integers (coefficients, low degree first).

    Nothing is coerced: a bool, float or string, or an integer that would
    only reduce to a residue (in GF(p^k) it could also read as an element
    index) raises ValueError, whose message calls the value `what`.
    """
    for c in value if isinstance(value, list) else [value]:
        if type(c) is not int:
            raise ValueError(f"{what} expected, got {c!r}")
        if not 0 <= c < F.p:
            raise ValueError(f"{what} {c} is outside 0..{F.p - 1} for {F!r}")
    return F.element(value)


def field_to_json(F: FieldSpec) -> dict:
    d = {"p": F.p, "k": F.k}
    if F.k > 1:
        d["modulus"] = list(F.modulus)
    return d


def tvec_to_json(tvec: dict) -> dict:
    """A t-vector with its multiplicities k as string keys."""
    return {str(k): v for k, v in tvec.items()}


def field_from_json(d: dict) -> FieldSpec:
    if not (isinstance(d, dict) and "p" in d and d.keys() <= {"p", "k", "modulus"}):
        raise ValueError(f"field {d!r} is not an object with p and optional k, modulus")
    p, k, modulus = d["p"], d.get("k", 1), d.get("modulus")
    if (modulus is not None and not isinstance(modulus, list)
            or any(type(n) is not int for n in [p, k, *(modulus or [])])):
        raise ValueError(f"field {d!r}: p, k and the modulus coefficients must be integers")
    return make_field(p, k, modulus)


def arrangement_to_json(A: Arrangement) -> dict:
    d = {
        "field": field_to_json(A.field),
        "lines": [[element_to_json(c) for c in L.coords] for L in A.lines],
    }
    if A.labels:
        d["labels"] = list(A.labels)
    return d


def arrangement_from_json(d: dict) -> Arrangement:
    if not (isinstance(d, dict) and {"field", "lines"} <= d.keys() <= {"field", "lines", "labels"}):
        raise ValueError("an arrangement is an object with field, lines and optional labels")
    F = field_from_json(d["field"])
    if not (isinstance(d["lines"], list) and all(isinstance(L, list) for L in d["lines"])):
        raise ValueError(f"lines must be a list of coordinate lists, got {d['lines']!r}")
    lines = [ProjLine(F, [element_from_json(F, c, "integer coordinate") for c in coords])
             for coords in d["lines"]]
    labels = d.get("labels")
    if labels is not None and not (isinstance(labels, list)
                                   and all(isinstance(x, str) for x in labels)
                                   and len(set(labels)) == len(labels)):
        raise ValueError(f"labels must be a list of distinct strings, got {labels!r}")
    return Arrangement(F, lines, labels)


def save_arrangement(A: Arrangement, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(arrangement_to_json(A), fh, indent=2)
        fh.write("\n")


def load_arrangement(path: str) -> Arrangement:
    with open(path, "r", encoding="utf-8") as fh:
        return arrangement_from_json(json.load(fh))
