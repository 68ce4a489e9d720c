"""Finitely presented and permutation group engine.

Certifies group orders and abelian invariants independently of any
classification table: Todd-Coxeter coset enumeration (HLT strategy with
deterministic definition order, coincidence handling and lookahead
passes), Smith normal form modulo a maximal minor, and permutation
group orders by deterministic Schreier-Sims.

The Smith normal form takes the rank and a nonzero maximal minor D from one
fraction-free elimination (Bareiss, Math. Comp. 22, 1968) and then
diagonalizes modulo D (Domich, Kannan and Trotter, Math. Oper. Res. 12,
1987), so its numbers stay polynomial in the input's bit size.  The
relation matrix is first split into blocks that share no generator, by a
union-find over the generators each row touches.  The matrix is then block
diagonal, so its rank and cokernel are the sums of the blocks': each block
is eliminated on its own, and the blocks' invariant factors are chained
together by gcd and lcm.  Many distinct rows over many generators thus cost
the blocks' eliminations, not one elimination over every generator.  A
block of r distinct rows over c generators takes up to r * c * min(r, c)
steps, and abelianization ends with BudgetExceeded, before any block's
matrix is built, when one passes MAX_ELIMINATION_STEPS.  Coset enumeration
reads the same blocks in a check before any coset is defined (see
coset_enumerate).

The enumeration writes each relator as w^k with w primitive.  One scan of
w^k that closes at a coset closes it at every coset of that coset's w-cycle,
so those cosets skip the scan, and the final check asks that every cycle of
w on the table have a length dividing k.  A relator thus costs about
index * |w| letters rather than index * k * |w|.

HLT and lookahead are one scan loop over the cosets in index order
(_CosetTable.scan_from).  HLT runs it with definitions on; when the live
cosets reach the budget, a lookahead pass runs it over every coset with
definitions off.  The loop passes a dead coset with one comparison and
skips a relator known to close at a coset, and with definitions off a scan
proven to change nothing: a scan that stops open proves the same of every
coset ahead of it along its relator's root (see _CosetTable._prove_open).
The open scans of one pass walk at most MAX_LOOKAHEAD_LETTERS letters, and a
pass that would walk more ends the enumeration with BudgetExceeded.

The coset table is stored by column, as in Cannon, Dimino, Havas and Watson
(Math. Comp. 27, 1973) and Holt, Eick and O'Brien (*Handbook of
Computational Group Theory*, ch. 5): one list per generator and per inverse,
indexed by coset, beside per-coset lists of parents, closed marks and
lookahead proofs.  A coset takes one 8-byte slot in each of these
2 * generators + 4 lists and one int object for its index: about 80 bytes
with one generator.  The coset budget bounds the cosets but not their
width, so the lists together hold at most MAX_TABLE_SLOTS slots, and a
table that would outgrow them ends with BudgetExceeded.  Each relator's
letters are resolved to the column lists they read once per enumeration, so
a scan makes one lookup per letter.  A scan that fills a gap and the fill
of a coset's empty entries define cosets alike, through one method, and the
table reports the cosets it defined and the merges it made.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from dataclasses import dataclass
from math import gcd, prod
from string import ascii_lowercase
from typing import Sequence, Union

from .cursor import Cursor
from .numtheory import DomainError, factorize


class BudgetExceeded(Exception):
    """An enumeration or closure outgrew its configured budget.

    For presentations this signals a possibly-infinite group; the caller
    decides whether that is an error or an expected verdict.
    """

    def __init__(self, what: str, budget: int):
        super().__init__(f"{what} exceeded budget {budget}")
        self.what = what
        self.budget = budget


# ---------------------------------------------------------------------------
# Presentations


def _default_names(count: int) -> tuple[str, ...]:
    if count <= len(ascii_lowercase):
        return tuple(ascii_lowercase[:count])
    return tuple(f"g{i}" for i in range(1, count + 1))


def _is_name(value: object) -> bool:
    """True iff value is a string the text form reads as one generator name."""
    if not isinstance(value, str):
        return False
    try:
        return Cursor(value, "presentation").take_name() == value
    except DomainError:
        return False


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: relator words over signed 1-based generator indices."""

    generator_count: int
    relators: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.generator_count < 1:
            raise DomainError("presentation needs at least one generator")
        if self.generator_count > MAX_GENERATORS:
            raise DomainError(f"presentation has more than {MAX_GENERATORS} generators")
        object.__setattr__(self, "relators", tuple(tuple(w) for w in self.relators))
        g = self.generator_count
        for w in self.relators:
            if not w:
                raise DomainError("relator words must be nonempty")
            # the set of letters is built at C speed; only a bad word is
            # walked, to name its first bad letter
            letters = set(w)
            if min(letters) < -g or max(letters) > g or 0 in letters:
                bad = next(x for x in w if x == 0 or abs(x) > g)
                raise DomainError(f"relator letter {bad} out of range")
        names = tuple(self.names)
        if not all(map(_is_name, names)):
            raise DomainError(
                "generator names must be a letter or underscore, then letters, digits and underscores"
            )
        names = names or _default_names(g)
        if len(names) != g or len(set(names)) != g:
            raise DomainError("generator names must be distinct and match the count")
        object.__setattr__(self, "names", names)


def inverse_word(word: Sequence[int]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(word))


def _word_to_text(word: Sequence[int], names: Sequence[str]) -> str:
    parts: list[str] = []
    i = 0
    while i < len(word):
        x = word[i]
        j = i
        while j < len(word) and word[j] == x:
            j += 1
        run = j - i
        name = names[abs(x) - 1]
        exp = run if x > 0 else -run
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return "*".join(parts)


def presentation_to_text(pres: Presentation) -> str:
    gens = ",".join(pres.names)
    rels = ", ".join(_word_to_text(w, pres.names) for w in pres.relators)
    return f"<{gens} | {rels}>"


# Most letters the text parser expands a presentation's relators to, all
# together; each power, commutator and concatenation is checked against the
# room left before it is built.
MAX_RELATOR_LETTERS = 10**7

# Most slots a coset table may hold: cosets times its 2 * generators + 4
# lists, 8 bytes each, so about 270 MB at this bound.  The coset budget bounds
# the cosets but not the width of each, which a wide presentation sets.
MAX_TABLE_SLOTS = 2**25

# Most letters the open no-fill scans of one lookahead pass may walk.  Each
# deduction or merge of a pass voids the scans it has proved open, so a pass
# whose deductions keep coming re-walks every long open chain after each one,
# and its work can grow with the square of the budget.  At this bound a pass
# stops within seconds.
MAX_LOOKAHEAD_LETTERS = 2**25

# Most steps a dense elimination of the relation matrix may take, in
# abelianization per block and in coset_enumerate's check before the table
# over all blocks: a few seconds at this bound.
MAX_ELIMINATION_STEPS = 2**26

# Most generators a presentation may have.  Each coset of the table takes a
# slot in 2 * generators + 4 lists, and each relator is a row of the relation
# matrix with one entry per generator (32 KB of references at this bound);
# unbounded, a count that costs the input a few digits would size both.
MAX_GENERATORS = 4096

# Deepest nesting of parenthesized subwords and commutators the text parser
# reads; it recurses once per level, so this stays far below the
# interpreter's recursion limit.
MAX_NESTING_DEPTH = 100

# Largest degree a permutation group may have.  A stabilizer chain stores
# O(degree) points per base point and strong generator, and holds one level's
# transversal, up to degree**2 points, while it sifts that level's Schreier
# generators: about 140 MB at this bound, where the slowest groups measured
# (dihedral of order 8192, S_4096 up to its budget stop) take seconds.
MAX_PERMUTATION_DEGREE = 4096

# Most image points the distinct generators of a parsed permutation set may
# hold together (distinct generators times degree): 8 MB of references at
# this bound, 256 generators at the largest degree.
MAX_GENERATOR_POINTS = 2**20


def _check_length(length: int, room: int) -> None:
    if length > room:
        raise DomainError(f"relators expand to more than {MAX_RELATOR_LETTERS} letters")


def _take_int(lx: Cursor) -> int:
    neg = lx.try_take("-")
    value = lx.take_uint()
    return -value if neg else value


def _parse_word(lx: Cursor, index: dict[str, int], room: int, depth: int = 0) -> tuple[int, ...]:
    out: list[int] = []
    while True:
        c = lx.peek()
        if c is None:
            raise lx.error("unterminated word")
        if c in "([" and depth == MAX_NESTING_DEPTH:
            raise lx.error(f"subwords nested deeper than {MAX_NESTING_DEPTH}")
        if c == "(":
            lx.take("(")
            inner = _parse_word(lx, index, room, depth + 1)
            lx.take(")")
        elif c == "[":
            lx.take("[")
            u = _parse_word(lx, index, room, depth + 1)
            lx.take(",")
            v = _parse_word(lx, index, room, depth + 1)
            lx.take("]")
            _check_length(2 * (len(u) + len(v)), room)
            inner = u + v + inverse_word(u) + inverse_word(v)
        elif c.isalpha() or c == "_":
            name = lx.take_name()
            if name not in index:
                raise lx.error(f"unknown generator {name!r}")
            inner = (index[name],)
        else:
            raise lx.error("expected a factor")
        if lx.try_take("^"):
            e = _take_int(lx)
            _check_length(len(inner) * abs(e), room)
            inner = (inner if e >= 0 else inverse_word(inner)) * abs(e)
        _check_length(len(out) + len(inner), room)
        out.extend(inner)
        nxt = lx.peek()
        if nxt == "*":
            lx.take("*")
            continue
        if nxt is not None and (nxt.isalpha() or nxt in "([_"):
            continue
        return tuple(out)


def parse_presentation(text: str) -> Presentation:
    """Parse ``<a,b | a^2, b^3, (a*b)^7>`` or the JSON relator form."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return _presentation_from_json(stripped)
    lx = Cursor(text, "presentation")
    lx.take("<")
    names = [lx.take_name()]
    while lx.try_take(","):
        names.append(lx.take_name())
    lx.take("|")
    index = {nm: i + 1 for i, nm in enumerate(names)}
    relators: list[tuple[int, ...]] = []
    room = MAX_RELATOR_LETTERS
    if lx.peek() != ">":
        relators.append(_parse_word(lx, index, room))
        while lx.try_take(","):
            room -= len(relators[-1])
            relators.append(_parse_word(lx, index, room))
    lx.take(">")
    if lx.peek() is not None:
        raise lx.error("trailing input")
    return Presentation(len(names), tuple(relators), tuple(names))


def _presentation_from_json(text: str) -> Presentation:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"presentation syntax error at position {exc.pos}: bad JSON") from exc
    except ValueError:  # an integer with more digits than int() converts
        raise DomainError("presentation syntax error: an integer is too long") from None
    gens = obj.get("generators")
    rels = obj.get("relators")
    names = obj.get("names", [])
    # a JSON integer; bool is a subclass of int
    if type(gens) is not int or not isinstance(rels, list) or not isinstance(names, list):
        raise DomainError(
            "presentation JSON needs integer 'generators', list 'relators' and list 'names'"
        )
    if not all(isinstance(w, list) and set(map(type, w)) <= {int} for w in rels):
        raise DomainError("presentation JSON relators must be lists of integers")
    return Presentation(gens, tuple(tuple(w) for w in rels), tuple(names))


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration (HLT with lookahead)


class _NeedLookahead(Exception):
    pass


def _root_length(word: Sequence[int]) -> int:
    """Length of the primitive root w of ``word``, written as w^k."""
    # the lengths d | len(word) with word == word[:d] * (len(word) // d) are
    # the multiples of the root's length, so dividing out one prime at a
    # time while the quotient still repeats ends at the root.  Once word is
    # word[:p] repeated, d | p is a period of word exactly when it is one of
    # word[:p]; views of one array of the letters compare without a copy.
    p = len(word)
    if p > 1:
        letters = memoryview(array("q", word))
        for q, _ in factorize(p):
            while p % q == 0 and letters[p // q : p] == letters[: p - p // q]:
                p //= q
    return p


# A relator w^k as (w, k), with w primitive.
_Power = tuple[tuple[int, ...], int]


def _powers(relators: Sequence[tuple[int, ...]]) -> list[_Power]:
    """Each distinct relator as its power, in order of first appearance; the
    relation matrix and the coset table both read relators so, and one
    enumeration splits each relator once.  A repeated relator adds no row
    to the matrix and its scans change no table, so it is dropped."""
    powers: dict[_Power, None] = {}
    for word in relators:
        m = _root_length(word)
        powers.setdefault((word[:m], len(word) // m))
    return list(powers)


# Most cosets a table makes room for at once; a smaller table doubles.
_GROWTH = 1024


class _CosetTable:
    """A coset table stored by column.

    Coset 0 stands for an undefined entry and coset 1 is the subgroup.
    Generator x reads column 2(x - 1) and its inverse column 2(x - 1) + 1,
    so columns c and c ^ 1 mirror each other.  Each column is one list
    indexed by coset, beside the per-coset lists parent, closed, proven and
    proven_at; all of them grow together by chunks, so defining a coset is
    a few stores.

    One loop, scan_from, scans the cosets against the relators: with
    definitions on it is HLT, and with them off a lookahead pass.  A pass
    records, for each no-fill scan that stops open, the cosets ahead of it
    along the relator's root whose scans would change nothing either, and
    skips those scans until the table changes; it counts the letters its
    open scans walk and stops at MAX_LOOKAHEAD_LETTERS.
    """

    def __init__(self, generator_count: int, powers: Sequence[_Power], max_cosets: int):
        self.cols: list[list[int]] = [[0, 0] for _ in range(2 * generator_count)]
        # each column with its mirror
        self.pairs = [(col, self.cols[c ^ 1]) for c, col in enumerate(self.cols)]
        # the column read by each letter and by its inverse: indexing wraps
        # a negative letter -x round to 2 * generator_count + 1 - x
        gens, invs = self.cols[0::2], self.cols[1::2]
        by_letter = [None, *gens, *reversed(invs)]
        by_inverse = [None, *invs, *reversed(gens)]
        # each relator is root^k with a primitive root (see _powers); a
        # proper power (k > 1) gets a bit in the closed masks, a relator with
        # k = 1 none.
        # fwd[r][i] is the column letter i of relator r reads forward,
        # bwd[r][i] the one it reads backward.
        self.fwd: list[tuple[list[int], ...]] = []
        self.bwd: list[tuple[list[int], ...]] = []
        self.roots: list[tuple[list[int], ...]] = []
        self.bits: list[int] = []
        for r, (word, k) in enumerate(powers):
            root = tuple(map(by_letter.__getitem__, word))
            self.fwd.append(root * k)
            self.bwd.append(tuple(map(by_inverse.__getitem__, word)) * k)
            self.roots.append(root)
            self.bits.append(1 << r if k > 1 else 0)
        # a no-fill scan that walks two roots forward proves cosets worth
        # skipping (see _prove_open); recording a shorter walk costs about
        # what skipping would save.  A scan of a relator with k = 1 stops
        # open before one root, so it never proves.
        self.proof_walk = [2 * len(root) for root in self.roots]
        self.max_cosets = max_cosets
        # cosets 1 .. size - 1 have been defined; the lists hold room beyond
        self.size = 2
        self.parent = [0, 1]
        # closed[k]: the bits of the relators known to close at coset k;
        # scanning one of them there again would change nothing
        self.closed = [0, 0]
        # proven[k]: during a lookahead pass, the bits of the relators whose
        # no-fill scan at coset k would change nothing until the table next
        # changes (see _prove_open).  It counts only while proven_at[k] is
        # the current epoch, which each change of the table and the end of
        # each pass advance.
        self.proven = [0, 0]
        self.proven_at = [0, 0]
        self.epoch = 1
        # letters walked by the open no-fill scans of the current lookahead
        # pass (see MAX_LOOKAHEAD_LETTERS)
        self.walked = 0
        self.alive = 1

    # every coset defined takes the next index and every merge kills one, so
    # the table counts both without a store of its own

    @property
    def defined(self) -> int:
        """Cosets defined so far."""
        return self.size - 2

    @property
    def merges(self) -> int:
        """Merges made so far."""
        return self.size - 1 - self.alive

    def _grow(self) -> None:
        room = [0] * min(self.size, _GROWTH)
        lists = len(self.cols) + 4
        if (len(self.parent) + len(room)) * lists > MAX_TABLE_SLOTS:
            raise BudgetExceeded("coset table slots", MAX_TABLE_SLOTS)
        for column in (*self.cols, self.parent, self.closed, self.proven, self.proven_at):
            column.extend(room)

    def _define(self, alpha: int, col: list[int], mirror: list[int]) -> int:
        """Define alpha times the column col, whose mirror is ``mirror``, as a
        new coset, and return it."""
        if self.alive >= self.max_cosets:
            raise _NeedLookahead
        beta = self.size
        if beta == len(self.parent):
            self._grow()
        self.size = beta + 1
        self.alive += 1
        self.parent[beta] = beta
        col[alpha] = beta
        mirror[beta] = alpha
        return beta

    def _coincidence(self, a: int, b: int) -> None:
        """Identify the distinct live cosets a and b, and then every pair of
        cosets that forces."""
        self.epoch += 1
        parent, closed = self.parent, self.closed
        # a merge points the higher representative at the lower, which keeps
        # the relators known to close at either
        if b < a:
            a, b = b, a
        parent[b] = a
        closed[a] |= closed[b]
        # the cosets merged away, in order; each hands its entries on to the
        # representatives, merging again where two of them collide
        dying = [b]
        for gamma in dying:
            for col, mirror in self.pairs:
                delta = col[gamma]
                if not delta:
                    continue
                mirror[delta] = 0
                # representatives, found by path halving
                mu, nu = gamma, delta
                while parent[mu] != mu:
                    parent[mu] = parent[parent[mu]]
                    mu = parent[mu]
                while parent[nu] != nu:
                    parent[nu] = parent[parent[nu]]
                    nu = parent[nu]
                if col[mu]:
                    a, b = nu, col[mu]
                elif mirror[nu]:
                    a, b = mu, mirror[nu]
                else:
                    col[mu] = nu
                    mirror[nu] = mu
                    continue
                while parent[b] != b:
                    parent[b] = parent[parent[b]]
                    b = parent[b]
                if a != b:
                    if b < a:
                        a, b = b, a
                    parent[b] = a
                    closed[a] |= closed[b]
                    dying.append(b)
        self.alive -= len(dying)

    def scan(self, alpha: int, r: int, fill: bool) -> None:
        fwd, bwd = self.fwd[r], self.bwd[r]
        f = b = alpha
        i = 0
        j = len(fwd) - 1
        while True:
            while i <= j:
                nxt = fwd[i][f]
                if not nxt:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    self._coincidence(f, b)
                elif self.bits[r]:
                    self._mark(alpha, r)
                return
            while j >= i:
                nxt = bwd[j][b]
                if not nxt:
                    break
                b = nxt
                j -= 1
            if j < i:
                self._coincidence(f, b)
                return
            if j == i:
                self.epoch += 1
                fwd[i][f] = b
                bwd[i][b] = f
                if self.bits[r]:
                    self._mark(alpha, r)
                return
            if not fill:
                self.walked += i + len(fwd) - 1 - j
                if self.walked > MAX_LOOKAHEAD_LETTERS:
                    raise BudgetExceeded("lookahead letters", MAX_LOOKAHEAD_LETTERS)
                if i >= self.proof_walk[r]:
                    self._prove_open(alpha, r, i)
                return
            # define f times letter i as a new coset and step to it
            f = self._define(f, fwd[i], bwd[i])
            i += 1

    def _mark(self, alpha: int, r: int) -> None:
        """Relator r = root^k has just closed at alpha: mark it closed at
        every alpha*root^j, walking the root until it returns to alpha."""
        bit, root, closed = self.bits[r], self.roots[r], self.closed
        cur = alpha
        while True:
            closed[cur] |= bit
            for col in root:
                cur = col[cur]
            if cur == alpha:
                return

    def _prove_open(self, alpha: int, r: int, ahead: int) -> None:
        """A no-fill scan of relator r = root^k at alpha has stopped open,
        changing nothing, at a gap ``ahead`` letters forward.  Scanned from
        alpha*root^m, for m*|root| up to ``ahead``, the relator reads the
        same letters between the same two gaps, so it would change nothing
        there either: record those cosets, each ahead of alpha on the
        root's path, in ``proven``."""
        bit, root = self.bits[r], self.roots[r]
        proven, proven_at, epoch = self.proven, self.proven_at, self.epoch
        cur = alpha
        for _ in range(ahead // len(root)):
            for col in root:
                cur = col[cur]
            if proven_at[cur] == epoch:
                proven[cur] |= bit
            else:
                proven_at[cur] = epoch
                proven[cur] = bit

    def scan_from(self, alpha: int, fill: bool) -> None:
        """Scan each coset from alpha on, in index order and while it lives,
        against every relator not known to close there.

        With ``fill`` on this is HLT: a scan defines the cosets it needs, and
        the entries the coset still lacks are then defined.  When the live
        cosets reach the budget, a lookahead pass runs and the coset is taken
        again; a pass that leaves less than 5% headroom ends the enumeration
        with BudgetExceeded.  With ``fill`` off this is the lookahead pass
        itself: nothing is defined, a scan proven to change nothing is
        skipped (see _prove_open), and open scans that walk more than
        MAX_LOOKAHEAD_LETTERS letters in all end it with BudgetExceeded."""
        closed, parent, proven, proven_at = self.closed, self.parent, self.proven, self.proven_at
        relators, pairs, scan = tuple(enumerate(self.bits)), self.pairs, self.scan
        # a merge points a coset only at a lower one, so k lives exactly when
        # parent[k] == k
        while alpha < self.size:
            if parent[alpha] == alpha:
                try:
                    for r, bit in relators:
                        if closed[alpha] & bit:
                            continue
                        if not fill and proven_at[alpha] == self.epoch and proven[alpha] & bit:
                            continue
                        scan(alpha, r, fill)
                        if parent[alpha] != alpha:
                            break
                    else:
                        if fill:
                            # a definition merges nothing, so alpha lives on
                            for col, mirror in pairs:
                                if not col[alpha]:
                                    self._define(alpha, col, mirror)
                except _NeedLookahead:
                    self.lookahead()
                    if self.alive > self.max_cosets - max(1, self.max_cosets // 20):
                        raise BudgetExceeded("coset enumeration", self.max_cosets) from None
                    continue
            alpha += 1

    def lookahead(self) -> None:
        """The scan loop over every coset with definitions off, which may
        find coincidences but defines nothing.  A pass over a long open chain
        of a power relator costs about one walk along it, not one per coset.
        The pass starts its count of letters walked from zero and ends by
        advancing the epoch, so the scans it proved open are scanned again by
        the next."""
        self.walked = 0
        self.scan_from(1, False)
        self.epoch += 1

    def live_cosets(self) -> list[int]:
        parent = self.parent
        return [k for k in range(1, self.size) if parent[k] == k]


def _infinite_triangle(generator_count: int, powers: Sequence[_Power]) -> bool:
    """Whether the powers (see _powers) present, on two generators, a group
    <x, y | x^l, y^m, (x^e*y^f)^n> proven infinite by one of two tests.

    The three relators must be a power of x, a power of y and a power of a
    root that is, up to rotation, x^e*y^f: a run of one signed letter, then
    a run of the other.  Rotating or inverting a relator keeps its normal
    closure, so (y^f*x^e)^n and (x^e*y^f)^-n may stand for (x^e*y^f)^n.  A
    repeated relator is dropped before (see _powers).

    When e is a unit mod l and f one mod m, the maps x -> x^e and y -> y^f
    are automorphisms of Z_l and Z_m, so together one of their free product
    Z_l * Z_m, which sends x*y to x^e*y^f; the relators then present the
    von Dyck group (l, m, n), which is infinite when 1/l + 1/m + 1/n <= 1
    (Euclidean at equality, hyperbolic below it; Coxeter-Moser, Generators
    and Relations for Discrete Groups, ch. 4).

    When d = gcd(e, l) > 1, adding the relator x^d kills x^e, so the group
    maps onto <x, y | x^d, y^m, y^(f*n)>, the free product
    Z_d * Z_gcd(m, f*n).  A free product of two nontrivial groups is
    infinite, so the group is when gcd(m, f*n) > 1; the same holds with the
    roles of x and y swapped.  <x,y | x^4, y^3, (x^2*y)^3> maps so onto
    Z_2 * Z_3.  Both tests only prove a group infinite: anything they leave,
    a finite triangle group or <x,y | x^4, y^3, (x^2*y)^2> (gcd(3, 2) = 1)
    included, is left to the table.
    """
    if generator_count != 2 or len(powers) != 3:
        return False
    periods = {abs(root[0]): k for root, k in powers if len(root) == 1}
    roots = [(root, k) for root, k in powers if len(root) > 1]
    if len(periods) != 2 or len(roots) != 1:
        return False
    ((root, n),) = roots
    # the runs of the root read cyclically start where a letter differs
    # from the one before it
    starts = [i for i in range(len(root)) if root[i] != root[i - 1]]
    if len(starts) != 2 or {abs(root[i]) for i in starts} != periods.keys():
        return False
    i, j = starts
    l, m = periods[abs(root[i])], periods[abs(root[j])]
    e, f = j - i, len(root) - (j - i)
    if gcd(e, l) == gcd(f, m) == 1:
        return l * m + l * n + m * n <= l * m * n
    return gcd(e, l) > 1 and gcd(m, f * n) > 1 or gcd(f, m) > 1 and gcd(l, e * n) > 1


def _cyclically_reduced(word: Sequence[int]) -> tuple[int, ...]:
    """The word freely reduced, then stripped of inverse letters at its two
    ends: a conjugate of it, so a relator with the same normal closure."""
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    i, j = 0, len(out)
    while j - i > 1 and out[i] == -out[j - 1]:
        i, j = i + 1, j - 1
    return tuple(out[i:j])


def _two_generator_form(generator_count: int, powers: Sequence[_Power]) -> list[_Power] | None:
    """The powers of a presentation on three generators with one generator
    eliminated, or None when no relator lets one go.

    A relator that is a product of three distinct generators, each to the
    power +-1, defines its last letter from the other two: a*b*c = 1 gives
    c = (a*b)^-1 and c^-1 = a*b, whether c is z or z^-1.  Putting these
    words for z and z^-1 into every relator, each then cyclically reduced (see
    _cyclically_reduced), is a Tietze transformation, so the powers of the
    result present the same group on the two generators left:
    <x,y,z | x^2, y^3, z^7, x*y*z> becomes <x,y | x^2, y^3, (y^-1*x^-1)^7>.
    A relator that reduces to nothing, the defining one included, is
    dropped.
    """
    if generator_count != 3:
        return None
    for root, k in powers:
        if k == 1 and len(root) == 3 and len({abs(x) for x in root}) == 3:
            *rest, last = root
            swap = {last: inverse_word(rest), -last: tuple(rest)}
            reduced: dict[_Power, None] = {}
            for other, j in powers:
                word = _cyclically_reduced([y for x in other for y in swap.get(x, (x,))])
                if word:
                    m = _root_length(word)
                    reduced.setdefault((word[:m], j * len(word) // m))
            return list(reduced)
    return None


def _commute_pairwise(generator_count: int, relators: Sequence[tuple[int, ...]]) -> bool:
    """Whether, for every pair of generators, some relator is x*y*x^-1*y^-1
    for letters x and y of the two, each of either sign: a rotation of
    their commutator or of its inverse.  Such a relator makes the two
    commute, so the group is abelian and equals its abelianization.  With one
    generator there is no pair, and this holds."""
    pairs = set()
    for w in relators:
        if len(w) == 4 and w[0] == -w[2] and w[1] == -w[3] and abs(w[0]) != abs(w[1]):
            pairs.add(frozenset((abs(w[0]), abs(w[1]))))
    return len(pairs) == generator_count * (generator_count - 1) // 2


def _order_and_invariants(
    pres: Presentation, max_cosets: int
) -> tuple[int, AbelianInvariants | None]:
    """The order :func:`coset_enumerate` gives, and the abelian invariants
    its check before the table computed, or None where it left them to the
    table."""
    if max_cosets < 1:
        raise DomainError("max_cosets must be positive")
    g = pres.generator_count
    powers = _powers(pres.relators)
    blocks = _blocks(_exponent_sums(powers))
    two = _two_generator_form(g, powers)
    if (sum(len(gens) for _, gens in blocks) < g or _infinite_triangle(g, powers)
            or two is not None and _infinite_triangle(2, two)):
        raise BudgetExceeded("coset enumeration", max_cosets)
    invariants = None
    if sum(_elimination_steps(*block) for block in blocks) <= min(max_cosets, MAX_ELIMINATION_STEPS):
        invariants = _block_invariants(blocks, g)
        if invariants.free_rank or invariants.order() > max_cosets:
            raise BudgetExceeded("coset enumeration", max_cosets)
        if _commute_pairwise(g, pres.relators):
            return invariants.order(), invariants
    return _enumerate_hlt(g, powers, max_cosets), invariants


def coset_enumerate(pres: Presentation, max_cosets: int = 1_000_000) -> int:
    """Order of the presented group by coset enumeration over the trivial subgroup.

    HLT never holds more than ``max_cosets`` live cosets, so a group it can
    prove infinite, or larger than that, stops the enumeration at once with
    :class:`BudgetExceeded`, as it would have after outgrowing the budget.
    Two checks come before any coset is defined, and an abelian group is
    answered from the second with no table at all.  Both hold only over the
    trivial subgroup.

    A von Dyck group <x, y | x^l, y^m, (x*y)^n> with
    1/l + 1/m + 1/n <= 1 is infinite (see _infinite_triangle), so (2,3,7)
    and (4,8,8) stop before any coset is defined.  So is
    <x, y | x^l, y^m, (x^e*y^f)^n> when it maps onto a free product of two
    nontrivial cyclic groups, such as <x,y | x^4, y^3, (x^2*y)^3> onto
    Z_2 * Z_3, and a three-generator form that one relator x*y*z reduces to
    either (see _two_generator_form), such as <x,y,z | x^2, y^3, z^7, x*y*z>.
    These tests only prove a group infinite; they compute no order.

    The order is at least that of the abelianization, which the relation
    matrix gives.  When the abelianization has a free rank or an order above
    the budget, the enumeration stops.  A generator with no nonzero exponent
    sum leaves a free rank, so it stops the enumeration before any
    elimination.  Otherwise the matrix splits into blocks that share no
    generator (see _blocks), and the abelian invariants come from the
    blocks as in :func:`abelianization`.  The elimination of a block of r
    distinct nonzero rows over g generators takes up to r * g * min(r, g)
    steps and the table at least one per coset before it outgrows the
    budget, so a check whose blocks together are dearer than ``max_cosets``
    steps, or than MAX_ELIMINATION_STEPS, is left to the table.

    Where the check ran and found the abelianization finite and within the
    budget, a presentation whose relators include, for every pair of
    generators, a rotation of their commutator or of its inverse (see
    _commute_pairwise) presents an abelian group, which equals its
    abelianization: the order is the product of the invariant factors, and
    no table is built.  Every cyclic presentation is one: <a | a^1000000>
    gets its order with no million-coset table, most of the time going to
    finding the relator's root.  An abelian group within the budget thus
    always gets its order,
    where HLT's peak of live cosets could outgrow a tight budget.  Every
    other order comes from :func:`_enumerate_hlt`.
    """
    return _order_and_invariants(pres, max_cosets)[0]


def _enumerate_hlt(generator_count: int, powers: Sequence[_Power], max_cosets: int) -> int:
    """Order of the group on generator_count generators whose relators are
    the (root, k) powers (see _powers), by HLT coset enumeration.

    HLT strategy: cosets are processed in ascending index order, each scanned
    against every relator, remaining columns filled by definition.  When the
    live-coset count reaches ``max_cosets`` a lookahead pass, the same scan
    loop over every coset with definitions off (see _CosetTable.scan_from),
    tries to collapse the table; if that cannot reclaim at least 5% headroom
    the enumeration stops with :class:`BudgetExceeded`.

    Each relator is written as w^k with w primitive.  A scan of w^k that
    closes at a coset alpha without a coincidence proves it closed at every
    alpha*w^j, so those cosets are marked and never scan it again; the final
    check reads w^k from the cycles of w.  A relator costs about
    index * |w| letters, not index * k * |w|, and the cosets defined and
    coincidences found are those of scanning every relator everywhere.
    """
    ct = _CosetTable(generator_count, powers, max_cosets)
    ct.scan_from(1, True)
    _validate_closed_table(ct)
    return ct.alive


def _validate_closed_table(ct: _CosetTable) -> None:
    live = ct.live_cosets()
    index = set(live)
    for col, mirror in ct.pairs:
        for k in live:
            target = col[k]
            assert target in index, "coset table left open or inconsistent"
            assert mirror[target] == k, "coset table mirror broken"
    # every column is now a permutation of the live cosets, and root^k closes
    # at each of them exactly when every cycle of root has a length dividing k
    for word, root in zip(ct.fwd, ct.roots):
        k = len(word) // len(root)
        seen = bytearray(ct.size)
        for x in live:
            if seen[x]:
                continue
            length = 0
            y = x
            while not seen[y]:
                seen[y] = 1
                for col in root:
                    y = col[y]
                length += 1
            assert y == x and k % length == 0, "relator does not close on the final table"


# ---------------------------------------------------------------------------
# Smith normal form and abelianization


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form, invariant-ordered (d1 | d2 | ...).

    Returns min(rows, cols) nonnegative diagonal entries, the zeros last:
    the rank and a nonzero maximal minor come from a fraction-free
    elimination, and the nonzero entries from a diagonalization modulo
    that minor (see _invariant_factors).
    """
    a = [[int(v) for v in row] for row in matrix]
    n = len(a[0]) if a else 0
    if any(len(row) != n for row in a):
        raise DomainError("matrix rows must have equal length")
    rank, minor = _eliminate(a)
    return _invariant_factors(a, n, rank, minor) + [0] * (min(len(a), n) - rank)


def _eliminate(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Rank of an integer matrix and the absolute value of one of its nonzero
    maximal minors (1 at rank 0).

    Fraction-free elimination (Bareiss, Math. Comp. 22, 1968): after k
    pivots every entry left is a (k + 1)-minor of the input, so the numbers
    stay within the Hadamard bound and each division is exact.  Rows with a
    unit entry are taken first, which keeps the minor small, and each pivot
    row is negated if need be to make its pivot positive, so while the
    pivots are 1 a row that is 0 in the pivot column stays as it is.
    """
    work = [list(row) for row in rows if any(row)]
    rank, last = 0, 1
    while work:
        pivot_row = work.pop(next((i for i, row in enumerate(work) if 1 in row or -1 in row), 0))
        c = min((j for j, v in enumerate(pivot_row) if v), key=lambda j: abs(pivot_row[j]))
        if pivot_row[c] < 0:
            pivot_row = [-v for v in pivot_row]
        p = pivot_row[c]
        rest = []
        for row in work:
            f = row[c]
            if f:
                row = [(p * x - f * y) // last for x, y in zip(row, pivot_row)]
                if not any(row):
                    continue
            elif p != last:
                row = [p * x // last for x in row]
            rest.append(row)
        work = rest
        rank, last = rank + 1, p
    return rank, last


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """g = gcd(a, b) and u, v with u*a + v*b == g, for positive a and b."""
    g = gcd(a, b)
    u = pow(a // g, -1, b // g)
    return g, u, (g - u * a) // b


def _clear_cross(rows: list[list[int]], d: int) -> int:
    """Clear column 0 of rows[1:] by unimodular row and column operations
    modulo d until the pivot rows[0][0] divides every entry of row 0, and
    return the pivot.  Column operations would then clear row 0 but for the
    pivot without changing another row, so they are left out.  When the
    pivot does not divide an entry it clears, it is replaced by their gcd,
    which is smaller, so the clearing ends."""
    while True:
        for i in range(1, len(rows)):
            a, b = rows[0][0], rows[i][0]
            if not b:
                continue
            if b % a == 0:
                q = b // a
                rows[i] = [(y - q * x) % d for x, y in zip(rows[0], rows[i])]
            else:
                g, u, v = _bezout(a, b)
                s, t = b // g, a // g
                rows[0], rows[i] = (
                    [(u * x + v * y) % d for x, y in zip(rows[0], rows[i])],
                    [(t * y - s * x) % d for x, y in zip(rows[0], rows[i])],
                )
        others = [j for j, x in enumerate(rows[0]) if x % rows[0][0]]
        if not others:
            return rows[0][0]
        for j in others:
            a, b = rows[0][0], rows[0][j]
            g, u, v = _bezout(a, b)
            s, t = b // g, a // g
            # column 0 becomes u * (column 0) + v * (column j), and column j
            # becomes t * (column j) - s * (column 0)
            for row in rows:
                x, y = row[0], row[j]
                row[0], row[j] = (u * x + v * y) % d, (t * y - s * x) % d


def _diagonalize(work: list[list[int]], d: int) -> list[int]:
    """Diagonal entries of a dense matrix diagonalized by unimodular row and
    column operations modulo d: each pivot, from the first nonzero row, is
    moved to row 0 and column 0 and cleared round, and its row and column
    are then dropped.  The pivot is a unit modulo d where the row has one,
    its row scaled to make it 1, which clears its column in one pass;
    otherwise it is the row's least entry."""
    diagonal: list[int] = []
    while work := [row for row in work if any(row)]:
        first = work[0]
        c = next((j for j, v in enumerate(first) if gcd(v, d) == 1), None)
        if c is None:
            c = min((j for j, v in enumerate(first) if v), key=first.__getitem__)
        else:
            inverse = pow(first[c], -1, d)
            work[0] = [v * inverse % d for v in first]
        for row in work:
            row[0], row[c] = row[c], row[0]
        diagonal.append(_clear_cross(work, d))
        work = [row[1:] for row in work[1:]]
    return diagonal


def _invariant_factors(
    rows: Sequence[Sequence[int]], columns: int, rank: int, minor: int
) -> list[int]:
    """The nonzero invariant factors of an integer matrix with this many
    columns, given its rank and a nonzero maximal minor (from _eliminate).

    Each nonzero invariant factor divides every maximal minor, so they are
    those of the rows together with ``minor`` times each unit vector
    (Domich, Kannan and Trotter, Math. Oper. Res. 12, 1987): the rank-many
    smallest of the ``columns`` invariant factors of that lattice, whose
    others equal ``minor``.  Its cokernel is read off a diagonalization
    modulo ``minor``, so no entry outgrows the minor.
    """
    d = minor
    diagonal = _diagonalize([[v % d for v in row] for row in rows], d)
    # the lattice's cokernel is the sum of Z/gcd(e, d) over the diagonal and
    # of Z/d once for each column left without a pivot
    factors = _divisibility_chain([gcd(e, d) for e in diagonal if gcd(e, d) > 1])
    chain = [1] * (len(diagonal) - len(factors)) + factors + [d] * (columns - len(diagonal))
    return chain[:rank]


def _divisibility_chain(factors: list[int]) -> list[int]:
    """The cyclic factors of a finite abelian group, sorted in place into a
    divisibility chain (each entry dividing the next) of the same group:
    gcd and lcm of two entries at a time keep the group and move each prime's
    larger power later.  Entries of 1 may lead the chain."""
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            factors[i] = gcd(a, b)
            factors[j] = a // factors[i] * b
    return factors


@dataclass(frozen=True)
class AbelianInvariants:
    """Torsion invariant factors (each >= 2, each dividing the next) and free rank."""

    factors: tuple[int, ...]
    free_rank: int

    def order(self) -> int | None:
        return None if self.free_rank else prod(self.factors)


def _exponent_sums(powers: Sequence[_Power]) -> list[dict[int, int]]:
    """Each distinct nonzero row of the relators' exponent sums, as a map from
    0-based generator to nonzero sum, in order of first appearance.  A
    relator root^k sums to k times its root (see _powers).  Repeated and zero
    rows change neither rank nor invariant factors, and a generator in no row
    adds only free rank."""
    distinct: dict[tuple[tuple[int, int], ...], dict[int, int]] = {}
    for root, k in powers:
        sums: Counter = Counter()
        for x, count in Counter(root).items():
            sums[abs(x) - 1] += k * count if x > 0 else -k * count
        row = {j: v for j, v in sums.items() if v}
        if row:
            distinct.setdefault(tuple(sorted(row.items())), row)
    return list(distinct.values())


def _relation_matrix(rows: Sequence[dict[int, int]], columns: Sequence[int]) -> list[list[int]]:
    """The rows of a block (see _blocks) as dense rows over its generators."""
    return [[row.get(j, 0) for j in columns] for row in rows]


def _blocks(rows: Sequence[dict[int, int]]) -> list[tuple[list[dict[int, int]], list[int]]]:
    """The rows of _exponent_sums split into blocks that share no generator,
    each with its generators ascending, in order of their first rows.  A
    union-find joins the generators each row touches; the relation matrix is
    then block diagonal, and its rank and cokernel are the sums of the
    blocks'."""
    parent: dict[int, int] = {}

    def find(j: int) -> int:
        while parent.setdefault(j, j) != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    for row in rows:
        first, *others = map(find, row)
        for j in others:
            parent[j] = first
    blocks: dict[int, tuple[list[dict[int, int]], list[int]]] = {}
    for row in rows:
        blocks.setdefault(find(next(iter(row))), ([], []))[0].append(row)
    for j in sorted(parent):
        blocks[find(j)][1].append(j)
    return list(blocks.values())


def _elimination_steps(rows: Sequence[dict[int, int]], columns: Sequence[int]) -> int:
    """Most steps the elimination of a block of these rows over these
    generators takes."""
    return len(rows) * len(columns) * min(len(rows), len(columns))


def _block_invariants(
    blocks: Sequence[tuple[list[dict[int, int]], list[int]]], generator_count: int
) -> AbelianInvariants:
    """Abelian invariants of the group on generator_count generators whose
    relation matrix has these blocks (see _blocks): the Smith normal form of
    each block, their factors chained together."""
    factors: list[int] = []
    rank = 0
    for rows, columns in blocks:
        nonzero = [d for d in smith_normal_form(_relation_matrix(rows, columns)) if d]
        rank += len(nonzero)
        factors += (d for d in nonzero if d > 1)
    chain = tuple(d for d in _divisibility_chain(factors) if d > 1)
    return AbelianInvariants(chain, generator_count - rank)


def abelianization(pres: Presentation) -> AbelianInvariants:
    """Abelian invariants of the presented group, from the blocks of its
    relation matrix (see _block_invariants).  A block whose elimination may
    take more than MAX_ELIMINATION_STEPS steps ends it with BudgetExceeded
    before any block's matrix is built."""
    blocks = _blocks(_exponent_sums(_powers(pres.relators)))
    if any(_elimination_steps(*block) > MAX_ELIMINATION_STEPS for block in blocks):
        raise BudgetExceeded("abelianization", MAX_ELIMINATION_STEPS)
    return _block_invariants(blocks, pres.generator_count)


# ---------------------------------------------------------------------------
# Permutation groups


@dataclass(frozen=True)
class PermutationSet:
    """Generators of a permutation group on {1..degree}, stored as 0-based image tuples."""

    degree: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_degree(self.degree)
        gens = tuple(tuple(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise DomainError("at least one generator required")
        full = set(range(self.degree))
        for g in gens:
            if len(g) != self.degree or set(g) != full:
                raise DomainError("generator is not a bijection of the point set")


def _check_degree(degree: int) -> None:
    if not 1 <= degree <= MAX_PERMUTATION_DEGREE:
        raise DomainError(f"permutation degree {degree} outside 1..{MAX_PERMUTATION_DEGREE}")


def parse_permutations(text: str, degree: int | None = None) -> PermutationSet:
    """Parse semicolon-separated products of cycles, e.g. ``(1,4)(2,7);(1,2,3)``.

    A cycle lists distinct unsigned points from 1 on; ``()`` is the identity,
    and a generator with no cycle, as in ``;;``, is skipped.  The cycles of
    one generator compose from left to right: the leftmost acts first, so
    ``(1,2)(2,3)`` sends 1 to 2 and then to 3, and is the 3-cycle
    ``(1,3,2)``.  A generator that moves every point as an earlier one does
    (a second identity among them) is dropped before any image is built.
    """
    lx = Cursor(text, "permutation")
    # each distinct generator as its sorted (point, image) pairs, moved points
    # only, in order of first appearance
    distinct: dict[tuple[tuple[int, int], ...], None] = {}
    maxpt = 0
    while True:
        # the product of the cycles read so far, on the points they touch,
        # and its inverse
        moves: dict[int, int] = {}
        preimage: dict[int, int] = {}
        read = False
        while lx.try_take("("):
            read = True
            if lx.try_take(")"):
                continue
            pts = [lx.take_uint()]
            while lx.try_take(","):
                pts.append(lx.take_uint())
            lx.take(")")
            if 0 in pts or len(set(pts)) != len(pts):
                raise lx.error("cycle points must be distinct and at least 1")
            # what the earlier cycles sent to p, this one sends on to p's
            # successor
            steps = [(preimage.get(p - 1, p - 1), pts[(i + 1) % len(pts)] - 1)
                     for i, p in enumerate(pts)]
            for source, q in steps:
                moves[source] = q
                preimage[q] = source
            maxpt = max(maxpt, *pts)
        if read:
            distinct.setdefault(tuple(sorted((p, q) for p, q in moves.items() if p != q)))
        if lx.peek() is None:
            break
        lx.take(";")
    if not distinct:
        raise DomainError("no permutations given")
    deg = degree if degree is not None else max(maxpt, 1)
    if maxpt > deg:
        raise DomainError(f"cycle point {maxpt} exceeds degree {deg}")
    _check_degree(deg)  # before any list of deg points is built
    if len(distinct) * deg > MAX_GENERATOR_POINTS:
        raise DomainError(
            f"{len(distinct)} distinct generators of degree {deg} exceed "
            f"{MAX_GENERATOR_POINTS} image points"
        )
    gens = []
    for moves in distinct:
        img = list(range(deg))
        for p, q in moves:
            img[p] = q
        gens.append(tuple(img))
    return PermutationSet(deg, tuple(gens))


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p first, then q."""
    return tuple(map(q.__getitem__, p))


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for v, image in enumerate(p):
        inv[image] = v
    return tuple(inv)


class _Level:
    """One level of a stabilizer chain: a base point, the strong generators
    that fix every earlier base point, and the basic orbit of the base point
    under them, kept as a Schreier vector."""

    __slots__ = ("base", "gens", "invs", "label", "orbit", "checked")

    def __init__(self, base: int, degree: int):
        self.base = base
        self.gens: list[tuple[int, ...]] = []
        self.invs: list[tuple[int, ...]] = []
        # label[v]: index of the generator whose edge first reached v in the
        # Schreier tree, -1 at the base point, None off the orbit
        self.label: list[int | None] = [None] * degree
        self.label[base] = -1
        self.orbit = [base]
        # checked[k]: how many of gens have had their Schreier generator at
        # orbit[k] sifted
        self.checked = [0]

    def add(self, g: tuple[int, ...], inv: tuple[int, ...]) -> None:
        """Add a generator and close the orbit under the enlarged set."""
        self.gens.append(g)
        self.invs.append(inv)
        orbit, label, gens = self.orbit, self.label, self.gens
        old = len(orbit)
        for p in orbit[:old]:
            q = g[p]
            if label[q] is None:
                label[q] = len(gens) - 1
                orbit.append(q)
        k = old
        while k < len(orbit):
            p = orbit[k]
            for j, s in enumerate(gens):
                q = s[p]
                if label[q] is None:
                    label[q] = j
                    orbit.append(q)
            k += 1
        self.checked.extend([0] * (len(orbit) - old))

    def strip(self, h: tuple[int, ...]) -> tuple[int, ...] | None:
        """h times the inverse transversal element of h(base), which fixes the
        base point; None when h(base) lies off the orbit."""
        b = h[self.base]
        if self.label[b] is None:
            return None
        while (j := self.label[b]) != -1:
            inv = self.invs[j]
            h = _compose(h, inv)
            b = inv[b]
        return h


def _sift(levels: list[_Level], h: tuple[int, ...], start: int) -> tuple[tuple[int, ...], int]:
    """Strip h through levels[start:]: the residue and the level it drops out at."""
    for i in range(start, len(levels)):
        stripped = levels[i].strip(h)
        if stripped is None:
            return h, i
        h = stripped
    return h, len(levels)


def _next_residue(
    levels: list[_Level], depth: int, identity: tuple[int, ...]
) -> tuple[tuple[int, ...], int] | None:
    """Sift the Schreier generators of levels[depth] not yet checked, up to
    the first that does not sift to the identity: that residue and the level
    it drops out at, or None when every one sifts to the identity."""
    lev = levels[depth]
    # the transversal, each element built from its parent's in the Schreier
    # tree (earlier in the orbit) by one composition, so a deep tree costs no
    # walk back to the base point per Schreier generator
    reps = {lev.base: identity}
    for p in lev.orbit[1:]:
        j = lev.label[p]
        reps[p] = _compose(reps[lev.invs[j][p]], lev.gens[j])
    for k, p in enumerate(lev.orbit):
        for j in range(lev.checked[k], len(lev.gens)):
            lev.checked[k] = j + 1
            q = lev.gens[j][p]
            if q != lev.base and lev.label[q] == j:
                continue  # a tree edge: its Schreier generator is trivial
            h = _compose(reps[p], lev.gens[j])
            if h == reps[q]:
                continue
            residue, drop = _sift(levels, _compose(h, _inverse(reps[q])), depth + 1)
            if residue != identity:
                return residue, drop
    return None


def _add_strong(levels: list[_Level], g: tuple[int, ...], first: int) -> None:
    """Add g to levels[first:] down to the first whose base point it moves;
    if it fixes every base point, open a level at the first point it moves."""
    inv = _inverse(g)
    for lev in levels[first:]:
        lev.add(g, inv)
        if g[lev.base] != lev.base:
            return
    moved = next(v for v, image in enumerate(g) if image != v)
    levels.append(_Level(moved, len(g)))
    levels[-1].add(g, inv)


def perm_order(perms: PermutationSet, max_size: int = 10_000_000) -> int:
    """Order of the generated group, by deterministic Schreier-Sims.

    Builds a base and strong generating set (Sims 1970; Holt-Eick-O'Brien,
    *Handbook of Computational Group Theory*, ch. 4), sifting every Schreier
    generator, and returns the product of the basic orbit lengths.  That
    product, taken over the orbits found so far, never exceeds the order, so
    :class:`BudgetExceeded` is raised as soon as it passes ``max_size``:
    exactly when the order does.  The chain is completed again after each
    input generator that is not already in the group it describes, and the
    others are skipped, so at most log2 of the order of them are used.
    Memory is O(degree) per base point and strong generator, plus the
    transversal of the one level being checked, whatever the order.
    """
    if max_size < 1:
        raise DomainError("max_size must be positive")

    levels: list[_Level] = []

    def add(g: tuple[int, ...], first: int) -> None:
        _add_strong(levels, g, first)
        if prod(len(lev.orbit) for lev in levels) > max_size:
            raise BudgetExceeded("permutation closure", max_size)

    identity = tuple(range(perms.degree))
    for g in perms.generators:
        residue, depth = _sift(levels, g, 0)
        if residue == identity:
            continue  # already in the group the chain describes
        add(residue, 0)
        # complete the chain again, deepest changed level first
        while depth >= 0:
            found = _next_residue(levels, depth, identity)
            if found is None:
                depth -= 1
            else:
                residue, drop = found
                add(residue, depth + 1)
                depth = drop
    return prod(len(lev.orbit) for lev in levels)


@dataclass(frozen=True)
class Fingerprint:
    """Order, abelian invariant factors, and commutativity of a finite group."""

    order: int
    abelian_invariants: tuple[int, ...]
    is_abelian: bool


def _perm_abelian_invariants(
    perms: PermutationSet, max_size: int
) -> tuple[tuple[int, ...], int]:
    """Abelian invariant factors, and the number of elements the walk visited."""
    # Walk the closure once, tagging every element with an exponent vector of
    # some word producing it; the multiplication-table relations then abelianize
    # to integer rows whose Smith normal form gives the invariants.
    k = len(perms.generators)
    identity = tuple(range(perms.degree))
    vec: dict[tuple[int, ...], tuple[int, ...]] = {identity: (0,) * k}
    frontier = [identity]
    rows: set[tuple[int, ...]] = set()
    while frontier:
        nxt = []
        for e in frontier:
            ve = vec[e]
            for gi, g in enumerate(perms.generators):
                f = _compose(e, g)
                stepped = tuple(v + (1 if i == gi else 0) for i, v in enumerate(ve))
                if f not in vec:
                    if len(vec) >= max_size:
                        raise BudgetExceeded("permutation closure", max_size)
                    vec[f] = stepped
                    nxt.append(f)
                else:
                    row = tuple(a - b for a, b in zip(stepped, vec[f]))
                    if any(row):
                        rows.add(row)
        frontier = nxt
    diag = smith_normal_form(sorted(rows))
    nonzero = [d for d in diag if d]
    assert len(nonzero) == k, "finite permutation group must have full-rank relation module"
    return tuple(d for d in nonzero if d > 1), len(vec)


def fingerprint(
    obj: Union[Presentation, PermutationSet],
    max_cosets: int = 1_000_000,
    max_size: int = 10_000_000,
) -> Fingerprint:
    """(order, abelian invariants, is_abelian) for a presentation or permutation set.

    A finite group is abelian exactly when its abelianization has its order."""
    if isinstance(obj, Presentation):
        order, ab = _order_and_invariants(obj, max_cosets)
        if ab is None:
            ab = abelianization(obj)
        invariants = ab.factors
    elif isinstance(obj, PermutationSet):
        order = perm_order(obj, max_size)
        invariants, visited = _perm_abelian_invariants(obj, max_size)
        # two unrelated counts of one order: the stabilizer chain's orbit
        # lengths and the elements the closure walk visited
        assert visited == order, f"closure walk visited {visited}, stabilizer chain gives {order}"
    else:
        raise DomainError(f"cannot fingerprint {type(obj).__name__}")
    return Fingerprint(order, invariants, prod(invariants) == order)
