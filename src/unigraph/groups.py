"""Finite groups as multiplication tables, Cayley digraphs, and condition suites.

Elements are indices 0..order-1 into a canonical element list; table[a, b]
is the product a*b.  Cayley digraphs use left multiplication: arcs (g, s*g).
Permutations of symmetric groups are stored in one-line notation and compose
right factor first.
"""
from __future__ import annotations

import json
import math
from itertools import combinations, permutations, repeat

import numpy as np

from .digraphs import Digraph, hamiltonian_cycle, permutation_cycles
from .errors import CapacityError, InputError, ParseError
from .matrices import Permutation
from .reporting import FAIL, NOT_APPLICABLE, PASS, Condition

__all__ = [
    "FiniteGroup",
    "cyclic_group",
    "product_of_cyclics",
    "boolean_cube_group",
    "dihedral_group",
    "symmetric_group",
    "explicit_group",
    "build_group",
    "cayley_digraph",
    "regular_representation",
    "first_noninvolution_pair",
    "NECESSARY_CONDITIONS",
    "coset_generating_set",
    "line_digraph_witness",
    "unistochastic_group_conditions",
    "parse_element_list",
]

_ORDER_CAP = 5040  # |S_7|; every family's order is checked before its table is built
_TABLE_CAP = 1024  # explicit tables (cubic associativity check, ~4 s at 1024) and cayley reports

# conditions whose fail rules out X(G; S) when |S| = 2
NECESSARY_CONDITIONS = frozenset({
    "involution-pairs",
    "even-order",
    "abelian-double-equal",
    "cyclic-pair-offset",
    "product-odd-component-equal",
    "product-all-odd-singleton",
    "pairwise-complementary",
})


def _check_order(family: str, factors) -> None:
    """CapacityError once the running product of `factors` (the order) passes the cap."""
    order = 1
    for f in factors:
        order *= f
        if order > _ORDER_CAP:
            raise CapacityError(f"{family} has order above the group cap of {_ORDER_CAP}")


class FiniteGroup:
    """Group given by its multiplication table; identity and inverses are derived.

    Associativity is taken on trust for the built-in families (their tables
    are associative by construction) and verified blockwise for explicit
    tables.
    """

    __slots__ = ("table", "names", "identity", "_inv", "source")

    def __init__(self, table, names=None, *, source=("explicit", ()), check_associativity=False):
        t = np.array(table, dtype=np.int32)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] < 1:
            raise InputError(f"multiplication table must be square, got shape {t.shape}")
        n = t.shape[0]
        if t.min() < 0 or t.max() >= n:
            raise InputError("table entries must be element indices")
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

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mult(x, a)
            k += 1
        return k

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

    def generates(self, elements) -> bool:
        return len(self.subgroup_closure(elements)) == self.order

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


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise InputError("need n >= 1")
    _check_order(f"Z:{n}", (n,))
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(table, names=[str(i) for i in range(n)], source=("cyclic", (n,)))


def product_of_cyclics(factors) -> FiniteGroup:
    """Direct product of cyclic groups; the first factor is least significant.

    With factors (2,)*k the element index read as a bitmask has bit i equal
    to the i-th coordinate, so the standard basis is 1, 2, 4, ...
    """
    ns = tuple(int(f) for f in factors)
    if not ns or any(f < 1 for f in ns):
        raise InputError(f"factors must be positive, got {ns}")
    _check_order("prod:" + ",".join(f"Z:{f}" for f in ns), ns)
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


def boolean_cube_group(k: int) -> FiniteGroup:
    if k < 1:
        raise InputError("need k >= 1")
    _check_order(f"Z2^{k}", repeat(2, k))
    return product_of_cyclics((2,) * k)


def dihedral_group(n: int) -> FiniteGroup:
    """Order 2n, elements f*n + r for rotation r and flip f.

    Product rule (r1,f1)*(r2,f2) = (r1 + (-1)^f1 * r2 mod n, f1 xor f2), so
    index 1 is the basic rotation, index n the flip, and flip*rot*flip is the
    inverse rotation.
    """
    if n < 1:
        raise InputError("need n >= 1")
    _check_order(f"D:{n}", (2, n))
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


def symmetric_group(n: int) -> FiniteGroup:
    """All permutations of n symbols in lexicographic order, composing right first."""
    if n < 1:
        raise InputError("need n >= 1")
    _check_order(f"S:{n}", range(1, n + 1))
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


def explicit_group(table, names=None) -> FiniteGroup:
    """Group from an outside table; its cubic associativity check caps it at _TABLE_CAP rows."""
    if isinstance(table, (list, tuple, np.ndarray)) and len(table) > _TABLE_CAP:
        raise CapacityError(f"explicit table has {len(table)} rows, above the cap of {_TABLE_CAP}")
    return FiniteGroup(table, names=names, source=("explicit", ()), check_associativity=True)


def build_group(spec: str) -> FiniteGroup:
    """Group mini-language: Z:n, Z2^k, D:n, S:n, prod:Z:a,Z:b,..., table:<path>."""
    spec = spec.strip()
    try:
        if spec.startswith("Z2^"):
            return boolean_cube_group(int(spec[3:]))
        if spec.startswith("Z:"):
            return cyclic_group(int(spec[2:]))
        if spec.startswith("D:"):
            return dihedral_group(int(spec[2:]))
        if spec.startswith("S:"):
            return symmetric_group(int(spec[2:]))
        if spec.startswith("prod:"):
            factors = []
            for part in spec[5:].split(","):
                part = part.strip()
                if not part.startswith("Z:"):
                    raise InputError(f"product factors must look like Z:n, got {part!r}")
                factors.append(int(part[2:]))
            return product_of_cyclics(factors)
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
            if "order" in obj and len(table) != int(obj["order"]):
                raise ParseError(f"group table {path}: declared order {obj['order']} != {len(table)}")
            return explicit_group(table, names=obj.get("names"))
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


def regular_representation(G: FiniteGroup, s: int) -> Permutation:
    """The permutation g -> s*g; summing its matrices over S gives the Cayley pattern."""
    (s,) = G._check_elements([s])
    return Permutation(tuple(int(x) for x in G.table[s]))


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

    s*t^-1 = t*s^-1 says that (s*t^-1)^2 = e.  The one test decides three
    conditions.  It is `complementary(P_s, P_t)` for the permutations
    g -> s*g and g -> t*g: with h = s^-1*t*i, "q(i) = p(h) implies
    q(h) = p(i)" reads t*s^-1*t = s.  On an abelian group it is s^2 = t^2.
    """
    gens = G._check_elements(S)
    for s, t in combinations(gens, 2):
        if G.mult(s, G.inv(t)) != G.mult(t, G.inv(s)):
            return s, t
    return None


def _cyclic_conditions(G: FiniteGroup, gens: list[int]) -> list[Condition]:
    n = G.order
    conds = []
    na = lambda name, note=None: Condition(  # noqa: E731
        name, NOT_APPLICABLE, witness={"note": note} if note else None
    )

    pair_ok = len(gens) == 2 and n % 2 == 0 and (max(gens) - min(gens)) == n // 2
    witness = {"difference": max(gens) - min(gens), "expected": n // 2 if n % 2 == 0 else None}
    conds.append(Condition("cyclic-pair-offset", PASS if pair_ok else FAIL, witness=witness))

    if not pair_ok:
        conds.extend(
            na(name, "needs the pair structure {s, s + n/2}")
            for name in (
                "cyclic-generation",
                "cyclic-graph-iff",
                "cyclic-hamiltonian",
                "cyclic-graph-nonhamiltonian",
            )
        )
        return conds

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
        unit = next((g for g in (s, t) if math.gcd(g, n) == 1), None)
        if unit is None:
            conds.append(Condition("cyclic-hamiltonian", FAIL, witness={"note": "no unit generator"}))
        else:
            cycle = tuple((j * unit) % n for j in range(n))
            conds.append(Condition("cyclic-hamiltonian", PASS, witness={"cycle": cycle}))

    if not (is_graph and generating):
        conds.append(na("cyclic-graph-nonhamiltonian", "needs the generating graph case"))
    else:
        try:
            cycle = hamiltonian_cycle(cayley_digraph(G, gens))
        except CapacityError:
            conds.append(na("cyclic-graph-nonhamiltonian", "beyond hamiltonicity search cap"))
        else:
            conds.append(
                Condition(
                    "cyclic-graph-nonhamiltonian",
                    PASS if cycle is None else FAIL,
                    witness=None if cycle is None else {"hamiltonian_cycle": tuple(cycle)},
                )
            )
    return conds


def _product_conditions(G: FiniteGroup, gens: list[int]) -> list[Condition]:
    factors = G.source[1]
    conds = []
    odd_factors = [i for i, f in enumerate(factors) if f % 2 == 1]
    if not odd_factors:
        conds.append(Condition("product-odd-component-equal", NOT_APPLICABLE))
    else:
        def digit(x, i):
            for f in factors[:i]:
                x //= f
            return x % factors[i]

        bad = None
        for i in odd_factors:
            values = {digit(g, i) for g in gens}
            if len(values) > 1:
                bad = {"factor_index": i, "modulus": factors[i], "components": sorted(values)}
                break
        conds.append(Condition("product-odd-component-equal", FAIL if bad else PASS, witness=bad))

    if all(f % 2 == 1 for f in factors):
        conds.append(
            Condition(
                "product-all-odd-singleton",
                PASS if len(gens) == 1 else FAIL,
                witness={"size": len(gens)},
            )
        )
    else:
        conds.append(Condition("product-all-odd-singleton", NOT_APPLICABLE))
    return conds


def unistochastic_group_conditions(G: FiniteGroup, S) -> tuple[Condition, ...]:
    """Evaluate the conditions a Cayley pattern must meet to come from a
    unistochastic matrix, plus the instance checks of the cyclic/product suites.

    The necessary conditions (`NECESSARY_CONDITIONS`) are derived for two
    generators, and for |S| = 2 a fail on any of them rules the pattern out.
    A single generator gives a permutation pattern, which is always realizable:
    nothing fails on it, and even-order and cyclic-pair-offset are
    not-applicable.  For |S| >= 3 every necessary condition is not-applicable
    (X(Z_3; Z_3) = J_3 is realized by DFT(3), yet five of them would fail).
    The remaining cyclic items report whether the expected structural facts
    (generation, graph form, hamiltonicity) hold for this instance.
    """
    gens = G._check_elements(S)
    if len(set(gens)) != len(gens):
        raise InputError("generator list contains duplicates")
    bad = first_noninvolution_pair(G, gens) if len(gens) == 2 else None

    def pair_condition(name: str) -> Condition:
        return Condition(name, FAIL, {"pair": bad}) if bad else Condition(name, PASS)

    conds = [
        pair_condition("involution-pairs"),
        Condition("even-order", PASS if G.order % 2 == 0 else FAIL, {"order": G.order}),
    ]
    if not G.is_abelian():
        conds.append(Condition("abelian-double-equal", NOT_APPLICABLE))
    elif bad:
        squares = (G.mult(bad[0], bad[0]), G.mult(bad[1], bad[1]))
        conds.append(Condition("abelian-double-equal", FAIL, {"pair": bad, "squares": squares}))
    else:
        conds.append(Condition("abelian-double-equal", PASS))
    if G.source[0] == "cyclic":
        conds.extend(_cyclic_conditions(G, gens))
    if G.source[0] == "product":
        conds.extend(_product_conditions(G, gens))
    conds.append(pair_condition("pairwise-complementary"))
    # the suites above are written for |S| = 2
    if len(gens) == 1:
        note, names = "a single generator always has a realizable pattern", {"even-order", "cyclic-pair-offset"}
    elif len(gens) > 2:
        note, names = "derived for two generators only", NECESSARY_CONDITIONS
    else:
        return tuple(conds)
    return tuple(Condition(c.name, NOT_APPLICABLE, {"note": note}) if c.name in names else c for c in conds)


def parse_element_list(G: FiniteGroup, text: str) -> list[int]:
    """Parse a --gens style list: integer indices, or cycles like "(1 2)(3 4)"
    for symmetric groups (1-based symbols, rightmost cycle applied first)."""
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
            if G.source[0] != "symmetric":
                raise InputError("cycle notation only applies to S:n groups")
            n = G.source[1][0]
            out.append(_cycle_token_to_index(tok, n))
        else:
            try:
                idx = int(tok)
            except ValueError as exc:
                raise InputError(f"bad element {tok!r}") from exc
            if not 0 <= idx < G.order:
                raise InputError(
                    f"element index {idx} out of range for a group of order {G.order}"
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
            v = int(sym) - 1
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
