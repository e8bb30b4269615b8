"""Finite groups as multiplication tables, Cayley digraphs, and condition suites.

Elements are indices 0..order-1 into a canonical element list; table[a, b]
is the product a*b.  Cayley digraphs use left multiplication: arcs (g, s*g).
Permutations of symmetric groups are stored in one-line notation and compose
right factor first.
"""
from __future__ import annotations

import json
import math
import numbers
from itertools import combinations, permutations

import numpy as np

from .digraphs import Digraph, permutation_cycles
from .errors import CapacityError, InputError, ParseError
from .reporting import FAIL, NOT_APPLICABLE, PASS, Condition

__all__ = [
    "FiniteGroup",
    "build_group",
    "cayley_digraph",
    "first_noninvolution_pair",
    "coset_generating_set",
    "line_digraph_witness",
    "unistochastic_group_conditions",
    "parse_element_list",
]

# rows of any group table: an explicit table's associativity check is cubic
# (~4 s at 1024), and the cayley and theorem1 reports inline an order x order matrix
_TABLE_CAP = 1024
_ORDER_CAP = 5040  # |S_7|; spectrum reads the order from the spec and builds no table


def _check_order(family: str, factors, cap: int) -> int:
    """The product of `factors` (the order); CapacityError once the running product passes the cap."""
    order = 1
    for f in factors:
        order *= f
        if order > cap:
            raise CapacityError(f"{family} has order above the group cap of {cap}")
    return order


class FiniteGroup:
    """Group given by its multiplication table; identity and inverses are derived.

    Associativity is taken on trust for the built-in families (their tables
    are associative by construction) and verified blockwise for explicit
    tables.
    """

    __slots__ = ("table", "names", "identity", "_inv", "source")

    def __init__(self, table, names=None, *, source=("explicit", ()), check_associativity=False):
        if not isinstance(table, np.ndarray):  # one object per entry, so no cast can truncate, parse or overflow it first
            table = np.array(table, dtype=object)
        if table.dtype.kind == "O":
            integral = all(isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in table.flat)
        else:
            integral = table.dtype.kind in "iu"
        if not integral:
            raise InputError("table entries must be integers")
        if table.ndim != 2 or table.shape[0] != table.shape[1] or table.shape[0] < 1:
            raise InputError(f"multiplication table must be square, got shape {table.shape}")
        n = table.shape[0]
        if table.min() < 0 or table.max() >= n:
            raise InputError("table entries must be element indices")
        t = table.astype(np.int32)
        t.setflags(write=False)
        self.table = t
        arange = np.arange(n)
        ids = np.flatnonzero((t == arange).all(axis=1) & (t == arange[:, None]).all(axis=0))
        if ids.size == 0:
            raise InputError("table has no identity element")
        identity = self.identity = int(ids[0])
        hits = t == identity
        inv = hits.argmax(axis=1).astype(np.int32)
        bad = np.flatnonzero((np.count_nonzero(hits, axis=1) != 1) | (t[inv, arange] != identity))
        if bad.size:
            raise InputError(f"element {bad[0]} has no two-sided inverse")
        inv.setflags(write=False)
        self._inv = inv
        if check_associativity:
            for a in range(n):
                left = t[t[a], :]
                right = t[a][t]
                if not np.array_equal(left, right):
                    b, c = map(int, np.argwhere(left != right)[0])
                    raise InputError(f"table is not associative at ({a}, {b}, {c})")
        if names is None:
            names = [str(i) for i in range(n)]
        if len(names) != n:
            raise InputError(f"need {n} element names, got {len(names)}")
        self.names = tuple(str(x) for x in names)
        self.source = source

    @property
    def order(self) -> int:
        return int(self.table.shape[0])

    def mult(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self._inv[a])

    def subgroup_closure(self, elements) -> frozenset[int]:
        """Subgroup generated by the elements (orbit of the identity)."""
        gens = self._check_elements(elements)
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for s in gens:
                    y = self.mult(x, s)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(seen)

    def _check_elements(self, elements) -> list[int]:
        out = []
        for x in elements:
            x = int(x)
            if not 0 <= x < self.order:
                raise InputError(f"element index {x} out of range 0..{self.order - 1}")
            out.append(x)
        if not out:
            raise InputError("need at least one element")
        return out

    def __repr__(self):
        kind, params = self.source
        return f"FiniteGroup(order={self.order}, source={kind}{params})"


def _cyclic_group(n: int) -> FiniteGroup:
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(table, names=[str(i) for i in range(n)], source=("cyclic", (n,)))


def _product_of_cyclics(ns: tuple[int, ...]) -> FiniteGroup:
    """Direct product of cyclic groups; the first factor is least significant.

    With factors (2,)*k the element index read as a bitmask has bit i equal
    to the i-th coordinate, so the standard basis is 1, 2, 4, ...
    """
    n = math.prod(ns)
    idx = np.arange(n)
    digits = []
    rem = idx.copy()
    for f in ns:
        digits.append(rem % f)
        rem //= f
    table = np.zeros((n, n), dtype=np.int64)
    weight = 1
    for d, f in zip(digits, ns):
        table += ((d[:, None] + d[None, :]) % f) * weight
        weight *= f
    names = ["(" + ",".join(str(int(d[i])) for d in digits) + ")" for i in range(n)]
    return FiniteGroup(table, names=names, source=("product", ns))


def _dihedral_group(n: int) -> FiniteGroup:
    """Order 2n, elements f*n + r for rotation r and flip f.

    Product rule (r1,f1)*(r2,f2) = (r1 + (-1)^f1 * r2 mod n, f1 xor f2), so
    index 1 is the basic rotation, index n the flip, and flip*rot*flip is the
    inverse rotation.
    """
    f, r = np.divmod(np.arange(2 * n), n)
    f1, r1 = f[:, None], r[:, None]
    table = (f1 ^ f) * n + (r1 + (1 - 2 * f1) * r) % n
    names = []
    for f in (0, 1):
        for r in range(n):
            base = f"r{r}" if r else ""
            names.append(("s" + base) if f else (base or "e"))
    return FiniteGroup(table, names=names, source=("dihedral", (n,)))


def _cycle_name(p) -> str:
    parts = []
    for cyc in permutation_cycles(p):
        if len(cyc) > 1:
            parts.append("(" + " ".join(str(v + 1) for v in cyc) + ")")
    return "".join(parts) or "e"


def _lex_rank(p) -> int:
    n = len(p)
    rank = 0
    for i in range(n):
        smaller = sum(1 for j in range(i + 1, n) if p[j] < p[i])
        rank = rank * (n - i) + smaller
    return rank


def _symmetric_group(n: int) -> FiniteGroup:
    """All permutations of n symbols in lexicographic order, composing right first."""
    perms = np.array(list(permutations(range(n))), dtype=np.int8)
    names = [_cycle_name(tuple(int(v) for v in p)) for p in perms]
    return FiniteGroup(_composition_ranks(perms), names=names, source=("symmetric", (n,)))


def _composition_ranks(perms: np.ndarray) -> np.ndarray:
    """Entry (i, j): the index of perms[i][perms[j]] in the lexicographic list `perms`.

    The index of a permutation is its Lehmer code, whose digit k counts the
    later entries below entry k; every composition is ranked at once.
    """
    cols = np.ascontiguousarray(perms.T)  # cols[k, i] = perms[i][k]
    ranks = np.zeros((len(perms),) * 2, dtype=np.int16)  # 7! < 2**15
    digit = np.empty(ranks.shape, dtype=np.int8)
    for k in range(len(cols) - 1):
        entry = cols[cols[k]]  # entry[j, i] is entry k of perms[i][perms[j]]
        digit[...] = 0
        for later in range(k + 1, len(cols)):
            digit += (cols[cols[later]] < entry).view(np.int8)
        ranks *= len(cols) - k
        ranks += digit
    return np.array(ranks.T, dtype=np.int32, order="C")


def _family(spec: str):
    """A built-in family spec as (order factors, table builder), or None for
    any other spec; InputError unless its parameters are positive integers.
    The factors are lazy, so a huge parameter is never expanded."""
    try:
        if spec.startswith("Z2^"):
            k = int(spec[3:])
            params, factors, build = [k], (2 for _ in range(k)), lambda: _product_of_cyclics((2,) * k)
        elif spec.startswith("Z:"):
            n = int(spec[2:])
            params, factors, build = [n], [n], lambda: _cyclic_group(n)
        elif spec.startswith("D:"):
            n = int(spec[2:])
            params, factors, build = [n], [2, n], lambda: _dihedral_group(n)
        elif spec.startswith("S:"):
            n = int(spec[2:])
            params, factors, build = [n], range(1, n + 1), lambda: _symmetric_group(n)
        elif spec.startswith("prod:"):
            params = []
            for part in spec[5:].split(","):
                part = part.strip()
                if not part.startswith("Z:"):
                    raise InputError(f"product factors must look like Z:n, got {part!r}")
                params.append(int(part[2:]))
            factors, build = params, lambda: _product_of_cyclics(tuple(params))
        else:
            return None
    except ValueError as exc:
        raise InputError(f"bad group spec {spec!r}: {exc}") from exc
    if min(params) < 1:
        raise InputError(f"bad group spec {spec!r}: parameters must be positive")
    return factors, build


def _spec_order(spec: str) -> int | None:
    """The order of the family group a spec names, read from the spec with
    build_group's errors but spectrum's cap of _ORDER_CAP, so no table is
    built; None for any other spec."""
    spec = spec.strip()
    family = _family(spec)
    return None if family is None else _check_order(spec, family[0], _ORDER_CAP)


def build_group(spec: str) -> FiniteGroup:
    """Group mini-language: Z:n, Z2^k, D:n, S:n, prod:Z:a,Z:b,..., table:<path>.

    The one way to build a group.  A family group's order is read from the
    spec, a table file's rows are counted, and a group above _TABLE_CAP
    rows is refused (CapacityError) before any table is built or checked.
    """
    spec = spec.strip()
    family = _family(spec)
    try:
        if family is not None:
            factors, build = family
            _check_order(spec, factors, _TABLE_CAP)
            return build()
        if spec.startswith("table:"):
            path = spec[6:]
            try:
                with open(path, encoding="utf-8") as fh:
                    obj = json.load(fh)
            except OSError as exc:
                raise ParseError(f"cannot read group table {path}: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON in group table {path}: {exc}") from exc
            if not isinstance(obj, dict) or "table" not in obj:
                raise ParseError(f"group table {path} must be JSON with a 'table' field")
            table = obj["table"]
            if not isinstance(table, list):
                raise ParseError(f"group table {path}: 'table' must be a list of rows")
            order = obj.get("order", len(table))
            if isinstance(order, bool) or order != len(table):
                raise ParseError(f"group table {path}: declared order {order!r} != {len(table)}")
            names = obj.get("names")
            if names is not None and not isinstance(names, list):
                raise ParseError(f"group table {path}: 'names' must be a list")
            if len(table) > _TABLE_CAP:  # counted before the cubic associativity check
                raise CapacityError(f"explicit table has {len(table)} rows, above the cap of {_TABLE_CAP}")
            return FiniteGroup(table, names=names, check_associativity=True)
    except ValueError as exc:
        raise InputError(f"bad group spec {spec!r}: {exc}") from exc
    raise InputError(
        f"unknown group spec {spec!r}; expected Z:n, Z2^k, D:n, S:n, prod:Z:a,Z:b,..., or table:PATH"
    )


def cayley_digraph(G: FiniteGroup, S) -> Digraph:
    """Digraph on the elements of G with arcs (g, s*g) for every s in S."""
    gens = G._check_elements(S)
    if len(set(gens)) != len(gens):
        raise InputError("generator list contains duplicates")
    n = G.order
    a = np.zeros((n, n), dtype=np.int8)
    idx = np.arange(n)
    for s in gens:
        a[idx, G.table[s]] = 1
    return Digraph(a)


def coset_generating_set(G: FiniteGroup, s1: int, s2: int) -> tuple[int, ...]:
    """Left coset s1*<c> with c = s1^-1 * s2, for a generating pair {s1, s2}.

    The result T contains s1 and s2, still generates G, has |T| = order(c),
    and always admits a `line_digraph_witness` with x = s1^-1 (so X(G;T) is a
    line digraph of a |T|-regular multidigraph and supports a unitary).
    """
    s1, s2 = G._check_elements([s1, s2])
    closure = G.subgroup_closure([s1, s2])
    if len(closure) != G.order:
        raise InputError(
            f"elements generate a subgroup of order {len(closure)}, not the whole "
            f"group of order {G.order}"
        )
    c = G.mult(G.inv(s1), s2)
    out = []
    p = G.identity
    while True:
        out.append(G.mult(s1, p))
        p = G.mult(p, c)
        if p == G.identity:
            break
    return tuple(out)


def line_digraph_witness(G: FiniteGroup, S) -> tuple[int, tuple[int, ...]] | None:
    """Search x in S^-1 with x*S closed under multiplication.

    Such an H = x*S is a subgroup with |H| = |S|, and then X(G;S) is the line
    digraph of an |S|-regular multidigraph.  Returns (x, sorted H) or None.
    """
    gens = G._check_elements(S)
    for s in gens:
        x = G.inv(s)
        H = frozenset(G.mult(x, t) for t in gens)
        if all(G.mult(a, b) in H for a in H for b in H):
            return x, tuple(sorted(H))
    return None


def first_noninvolution_pair(G: FiniteGroup, S) -> tuple[int, int] | None:
    """First pair (s, t) of S, in `combinations` order, with s*t^-1 != t*s^-1.

    s*t^-1 = t*s^-1 says that (s*t^-1)^2 = e; for two generators it decides
    the Cayley pattern (`unistochastic_group_conditions` has the proof).
    It says that the permutations p: g -> s*g and q: g -> t*g are
    complementary (q(i) = p(h) implies q(h) = p(i) for all i, h): with
    h = s^-1*t*i that reads t*s^-1*t = s.  On an abelian group it is
    s^2 = t^2.
    """
    gens = G._check_elements(S)
    for s, t in combinations(gens, 2):
        if G.mult(s, G.inv(t)) != G.mult(t, G.inv(s)):
            return s, t
    return None


def _cyclic_conditions(G: FiniteGroup, gens: list[int], paired: bool) -> list[Condition]:
    """The three instance records on Z_n; `paired` says S = {s, s + n/2}."""
    n = G.order
    na = lambda name, note: Condition(name, NOT_APPLICABLE, witness={"note": note})  # noqa: E731
    if not paired:
        return [
            na(name, "needs the pair structure {s, s + n/2}")
            for name in ("cyclic-generation", "cyclic-graph-iff", "cyclic-hamiltonian")
        ]

    conds = []
    s, t = min(gens), max(gens)
    generated = G.subgroup_closure(gens)
    generating = len(generated) == n
    criterion = (s % 2 == 1) or (s % 2 == 0 and n % 4 == 2)
    conds.append(
        Condition(
            "cyclic-generation",
            PASS if generating else FAIL,
            witness={
                "generated_order": len(generated),
                "parity_criterion_predicts": criterion,
                "criterion_matches": criterion == generating,
            },
        )
    )

    is_graph = all((n - g) % n in set(gens) for g in gens)
    graph_criterion = n % 4 == 0 and s == n // 4
    conds.append(
        Condition(
            "cyclic-graph-iff",
            PASS if is_graph == graph_criterion else FAIL,
            witness={"is_graph": is_graph, "s_equals_n_over_4": graph_criterion},
        )
    )

    if not generating:
        conds.append(na("cyclic-hamiltonian", "generators do not span the group"))
    else:
        # <s, s + n/2> = <gcd(s, n/2)> is Z_n, so gcd(s, n/2) = 1: either s is a
        # unit, or s is even with n/2 odd, and then s + n/2 is a unit
        unit = s if math.gcd(s, n) == 1 else t
        cycle = tuple((j * unit) % n for j in range(n))
        conds.append(Condition("cyclic-hamiltonian", PASS, witness={"cycle": cycle}))
    return conds


def unistochastic_group_conditions(G: FiniteGroup, S) -> tuple[Condition, ...]:
    """`involution-pairs`, which decides a pattern with two generators, then
    on Z_n the cyclic suite's three instance records.

    X = X(G; {s, t}) is the digraph of a unitary iff s*t^-1 = t*s^-1, the
    test `first_noninvolution_pair` runs:
    - Necessary.  Row g of X holds columns s*g and t*g.  Another row h meets
      it only as h = t^-1*s*g (at s*g = t*h), or with s and t swapped, and
      then shares its other column iff t*s^-1 = s*t^-1.  The columns give
      the same equation, so the test holds iff X is quadrangular.
    - Sufficient.  The test reads (s^-1*t)^2 = e, so s^-1*S = {e, s^-1*t} is
      a subgroup, x = s^-1 is a `line_digraph_witness`, and X is the line
      digraph of a 2-regular multidigraph: each row-column block is a full
      2x2, and `certify` answers `line-digraph-dft`.
    The conditions once reported beside it only read this test on a family:
    when it holds, s*t^-1 is an involution, so |G| is even; on an abelian
    group it reads s^2 = t^2, on Z_n |s - t| = n/2; it is complementarity
    of P_s and P_t (t*s^-1*t = s); in each odd factor of a product 2 is
    invertible, so the components there agree, and with every factor odd
    the test fails.

    A single generator gives a permutation pattern, and the test passes.
    For |S| >= 3 it is not-applicable: X(Z_3; Z_3) = J_3 is realized by
    DFT(3).  The cyclic records (generation, graph form, hamiltonicity)
    apply only to a pair that passes the test, {s, s + n/2} on Z_n.
    """
    gens = G._check_elements(S)
    if len(set(gens)) != len(gens):
        raise InputError("generator list contains duplicates")
    if len(gens) > 2:
        test = Condition("involution-pairs", NOT_APPLICABLE, {"note": "derived for two generators only"})
    else:
        bad = first_noninvolution_pair(G, gens)
        test = Condition("involution-pairs", FAIL, {"pair": bad}) if bad else Condition("involution-pairs", PASS)
    if G.source[0] != "cyclic":
        return (test,)
    return (test, *_cyclic_conditions(G, gens, len(gens) == 2 and test.status == PASS))


def parse_element_list(G: FiniteGroup, text: str) -> list[int]:
    """Parse a --gens style list: integer indices, or cycles like "(1 2)(3 4)"
    for symmetric groups (1-based symbols, rightmost cycle applied first)."""
    kind, params = G.source
    return _parse_elements(text, G.order, params[0] if kind == "symmetric" else None)


def _parse_elements(text: str, order: int, degree: int | None = None) -> list[int]:
    """`parse_element_list` without a table; cycle tokens need the degree of S:n."""
    tokens = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "," and depth == 0:
            tokens.append(cur)
            cur = ""
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InputError(f"unbalanced parentheses in {text!r}")
        cur += ch
    if depth != 0:
        raise InputError(f"unbalanced parentheses in {text!r}")
    tokens.append(cur)

    out = []
    for tok in tokens:
        tok = tok.strip()
        if not tok:
            raise InputError(f"empty element in list {text!r}")
        if tok.startswith("("):
            if degree is None:
                raise InputError("cycle notation only applies to S:n groups")
            out.append(_cycle_token_to_index(tok, degree))
        else:
            try:
                idx = int(tok)
            except ValueError as exc:
                raise InputError(f"bad element {tok!r}") from exc
            if not 0 <= idx < order:
                raise InputError(
                    f"element index {idx} out of range for a group of order {order}"
                )
            out.append(idx)
    return out


def _cycle_token_to_index(token: str, n: int) -> int:
    cycles = []
    body = token.strip()
    while body:
        if not body.startswith("("):
            raise InputError(f"bad cycle notation {token!r}")
        end = body.index(")")
        symbols = body[1:end].replace(",", " ").split()
        cyc = []
        for sym in symbols:
            try:
                v = int(sym) - 1
            except ValueError as exc:
                raise InputError(f"bad symbol {sym!r} in cycle {token!r}") from exc
            if not 0 <= v < n:
                raise InputError(f"symbol {sym} out of range 1..{n} in {token!r}")
            if v in cyc:
                raise InputError(f"repeated symbol {sym} in cycle {token!r}")
            cyc.append(v)
        if cyc:
            cycles.append(cyc)
        body = body[end + 1 :].strip()
    total = list(range(n))
    for cyc in cycles:  # leftmost cycle applied last
        step = list(range(n))
        for i, v in enumerate(cyc):
            step[v] = cyc[(i + 1) % len(cyc)]
        total = [total[step[x]] for x in range(n)]
    return _lex_rank(total)
