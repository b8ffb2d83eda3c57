"""The three benchmark workloads.

Each workload turns a seed into an endless stream of rounds.  A round holds
one case per stratum of the workload's fixed input mix, so every run sees the
same mix and the seed only changes the numbers inside each case.  Inputs are
plain integers and strings; `prepare` turns them into nestlab objects outside
the timed region, `run` makes the program calls that answer one user
question, and `check` compares the answer with an independent prediction
from `reference`.

Workloads, and why each exists:

* bimodule -- the reflexivity/support pipeline on operator spaces of width
  n^2.  opspace does almost all the work; documents and chaincalc do none.
* factor -- rank-one decomposition and membership at width n.  The same few
  nest elements are queried again and again, so this is the read side of
  ratlin (containment, meet, annihilator) beside bimodule's write side.
* cli -- document round trips as the CLI receives them.  A request takes tens
  of microseconds, so parsing, dispatch and formatting carry the weight.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable, Iterator

import reference as ref

Api = dict[str, Callable]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _strs(rows) -> list:
    return [[str(x) for x in r] for r in rows]


def _nonzero(rng: random.Random, lo: int = -2, hi: int = 2) -> int:
    return rng.choice([x for x in range(lo, hi + 1) if x])


def _columns(s: ref.Grid) -> list[list[int]]:
    return [list(c) for c in zip(*s)]


def _monotone(rng: random.Random, k: int, top: int) -> list[int]:
    return sorted(rng.randint(0, top) for _ in range(k))


class Workload:
    name = ""
    # cases between two probes of the machine's speed (see run.py)
    probe_every = 1

    def bind(self, nl: SimpleNamespace) -> None:
        """Receive the freshly imported nestlab modules."""
        self.nl = nl

    def rounds(self, seed: int) -> Iterator[list]:
        rng = random.Random(f"{self.name}:{seed}")
        index = 0
        while True:
            yield self.round(rng, index)
            index += 1

    def round(self, rng: random.Random, index: int) -> list:
        raise NotImplementedError

    def prepare(self, case) -> Any:
        return case

    def run(self, api: Api, prepared) -> Any:
        raise NotImplementedError

    def check(self, case, out) -> bool:
        raise NotImplementedError

    def canonical(self, out) -> str:
        raise NotImplementedError

    def note(self, case, out, traffic: Counter) -> None:
        """Count the traffic descriptor of one timed case."""

    def describe(self, traffic: Counter, cases: int) -> dict:
        raise NotImplementedError


def _adapted_nest(rng: random.Random, n: int, shape: str,
                  proper: int | None = None) -> tuple[ref.Adapted, list[int]]:
    """A nest of the given shape, conjugated by a seeded unimodular S.

    `proper` fixes the number of proper elements of a "subset" nest, or of
    an "even" one, whose elements are evenly spaced."""
    if shape == "flag":
        dims = list(range(1, n))
    elif shape == "even":
        dims = [round(i * n / (proper + 1)) for i in range(1, proper + 1)]
    elif shape == "two-block":
        dims = [rng.choice((n // 2, (n + 1) // 2))]
    else:
        count = proper if proper is not None else rng.randint(1, max(1, n - 2))
        dims = sorted(rng.sample(range(1, n), count))
    s, s_inv = ref.unimodular(rng, n)
    return ref.Adapted(s, s_inv, [*dims, n]), dims


# ---------------------------------------------------------------------------
# bimodule
# ---------------------------------------------------------------------------

class Bimodule(Workload):
    """Generated bimodule, its support, m_of(support), essential support, and
    per nest the algebra and the span of its rank-ones."""

    name = "bimodule"
    # Every (n, shape) pair once, and the heaviest pair, the full flag at
    # n = 6, twice: p90 then falls inside that stratum instead of on the edge
    # between strata, where the few largest cases of a run would decide it.
    STRATA = (*((n, shape) for n in (3, 4, 5, 6)
                for shape in ("flag", "two-block", "subset")), (6, "flag"))

    def round(self, rng, index):
        out = []
        for pos, (n, shape) in enumerate(self.STRATA):
            adapted, dims = _adapted_nest(rng, n, shape, proper=n // 2)
            # one or two units, alternating along the round and between rounds
            units = self._units(rng, adapted, 1 + (pos + index) % 2)
            order = rng.sample(dims, len(dims))
            out.append(SimpleNamespace(n=n, shape=shape, adapted=adapted,
                                       order=order, units=units))
        return out

    @staticmethod
    def _units(rng, a, count):
        """`count` matrix-unit positions whose bimodule has dimension near n^2/2.

        The cost of a case grows with dim J, so J's dimension is held near
        the middle of its range; which units, and so the shape of J and its
        support, stay random.  Where no choice lands within 0.05 n^2 of n^2/2,
        the closest dimension is used, the larger one on a tie, so that a
        stratum never mixes two costs."""
        n = a.n
        reach = {}
        for i in range(n):
            for j in range(n):
                reach[i, j] = frozenset(
                    (x, y) for x in range(n) for y in range(n)
                    if a.block(x) <= a.block(i) and a.block(y) >= a.block(j))
        choices = list(itertools.combinations(sorted(reach), count))
        sizes = [len(frozenset().union(*(reach[u] for u in c))) for c in choices]
        target = n * n / 2
        near = [c for c, size in zip(choices, sizes) if abs(size - target) <= 0.05 * n * n]
        if not near:
            best = min(sizes, key=lambda size: (abs(size - target), -size))
            near = [c for c, size in zip(choices, sizes) if size == best]
        return list(rng.choice(near))

    def prepare(self, case):
        a = case.adapted
        cols = _columns(a.s)
        elements = [cols[:d] for d in case.order]
        gens = [self.nl.ratlin.Matrix.from_rows(ref.outer(cols[i], a.s_inv[j]))
                for i, j in case.units]
        return case.n, elements, gens

    def run(self, api, prepared):
        n, elements, gens = prepared
        span = api["ratlin.span"]
        nest = api["nest.validate_nest"]([span(e, n) for e in elements], n)
        j = api["opspace.generate_bimodule"](nest, gens)
        phi = api["opspace.support_of"](nest, j)
        m = api["opspace.m_of"](nest, phi)
        ess = api["opspace.essential_support_of"](nest, j)
        alg = api["opspace.nest_algebra"](nest)
        ones = api["opspace.span_of_rank_ones"](nest)
        return SimpleNamespace(nest=nest, j=j, phi=phi, m=m, ess=ess, alg=alg, ones=ones)

    def expected(self, case):
        """Support values and dimension of the bimodule generated by the
        conjugated matrix units, read off the block structure: A E_ij A is
        spanned by the units E_ab with block(a) <= block(i), block(b) >= block(j)."""
        a = case.adapted
        k = len(a.dims)
        phi = [0] * k
        for i, jj in case.units:
            for lvl in range(a.block(jj), k):
                phi[lvl] = max(phi[lvl], a.block(i))
        dim = sum(
            1 for x in range(a.n) for y in range(a.n)
            if any(a.block(x) <= a.block(i) and a.block(y) >= a.block(jj)
                   for i, jj in case.units)
        )
        return phi, dim

    def check(self, case, out):
        a = case.adapted
        phi, dim = self.expected(case)
        identity = list(range(len(a.dims)))
        return (
            [e.dim for e in out.nest.elements] == list(a.dims)
            and list(out.phi.values) == phi
            and out.j.dim == dim
            and out.m == out.j
            and out.m.dim == a.dim_formula(phi)
            and all(v == 0 for v in out.ess.values)
            and out.ones == out.alg
            and out.alg.dim == a.dim_formula(identity)
        )

    def canonical(self, out):
        return json.dumps([
            _strs(out.j.space.basis.entries), list(out.phi.values),
            _strs(out.m.space.basis.entries), list(out.ess.values),
            _strs(out.alg.space.basis.entries), _strs(out.ones.space.basis.entries),
        ])

    def note(self, case, out, traffic):
        traffic[("n", case.n)] += 1
        traffic[("nest_len", len(case.adapted.dims))] += 1
        traffic[("shape", case.shape)] += 1
        traffic["proper"] += out.j.dim < case.n ** 2

    def describe(self, traffic, cases):
        return {
            "n": _hist(traffic, "n"),
            "nest_len": _hist(traffic, "nest_len"),
            "shape": _hist(traffic, "shape"),
            "j_proper_share": round(traffic["proper"] / max(cases, 1), 4),
        }


def _hist(traffic: Counter, key: str) -> dict:
    found = sorted((k[1], v) for k, v in traffic.items()
                   if isinstance(k, tuple) and k[0] == key)
    return {str(k): v for k, v in found}


# ---------------------------------------------------------------------------
# factor
# ---------------------------------------------------------------------------

class Factor(Workload):
    """Decompose a member T of m_of(phi) into rank-ones, confirm each factor
    and its images, and test a few random rank-ones against the algebra."""

    name = "factor"
    SIZES = (4, 5, 6, 7, 8, 9, 10)
    RANDOM_RANK_ONES = 2

    def round(self, rng, index):
        out = []
        for n in self.SIZES:
            # n//2 evenly spaced proper elements: the cost of a case then
            # depends on n, phi and T, not on where the elements happen to sit
            p = n // 2
            adapted, dims = _adapted_nest(rng, n, "even", proper=p)
            d = adapted.dims
            k = len(d)
            # phi sits above the identity, so m_of(phi) is rich enough for T
            # to have any rank; T has rank (n + 1)//2 exactly, so that the
            # number of factors, and with it the cost of a case, depends on n
            phi = [max(v, i) for i, v in enumerate(_monotone(rng, k, k - 1))]
            rank = (n + 1) // 2
            t = None
            while t is None or ref.rank(t) < rank:
                ones = [self._member(rng, d, phi) for _ in range(rank)]
                t = [[sum(x[r] * f[c] for x, f in ones) for c in range(n)]
                     for r in range(n)]
            target = ref.matmul(ref.matmul(adapted.s, t), adapted.s_inv)
            ones = [self._rank_one(rng, adapted) for _ in range(self.RANDOM_RANK_ONES)]
            out.append(SimpleNamespace(n=n, adapted=adapted, dims=dims, phi=phi,
                                       target=target, ones=ones))
        return out

    @staticmethod
    def _member(rng, d, phi):
        """A rank-one x (x) f of m_of(phi) in adapted coordinates: f kills
        E_{k-1} and x lies in phi(E_k), for a random k."""
        n = d[-1]
        k = rng.randint(1, len(d) - 1)
        x = [_nonzero(rng) if i < d[phi[k]] else 0 for i in range(n)]
        f = [_nonzero(rng) if i >= d[k - 1] else 0 for i in range(n)]
        return x, f

    @staticmethod
    def _rank_one(rng, a):
        """Half the time a member of the algebra by construction, else random."""
        n = a.n
        if rng.random() < 0.5:
            k = rng.randint(1, len(a.dims) - 1)
            x = [_nonzero(rng) if i < a.dims[k] else 0 for i in range(n)]
            f = [_nonzero(rng) if i >= a.dims[k - 1] else 0 for i in range(n)]
            return ref.row_times(f, a.s_inv), ref.apply(a.s, x)
        return ([_nonzero(rng) for _ in range(n)], [_nonzero(rng) for _ in range(n)])

    def prepare(self, case):
        nl = self.nl
        cols = _columns(case.adapted.s)
        return SimpleNamespace(
            n=case.n, elements=[cols[:d] for d in case.dims], phi=tuple(case.phi),
            target=nl.ratlin.Matrix.from_rows(case.target),
            ones=[nl.opspace.RankOne.of(f, x) for f, x in case.ones],
        )

    def run(self, api, p):
        span = api["ratlin.span"]
        contains = api["ratlin.contains_vector"]
        in_m = api["opspace.rank_one_in_m"]
        nest = api["nest.validate_nest"]([span(e, p.n) for e in p.elements], p.n)
        phi = self.nl.opspace.SupportFn(nest, p.phi)
        factors = api["opspace.decompose"](nest, phi, p.target)
        rank = api["ratlin.rank"](p.target)
        members = [in_m(nest, phi, f)[0] for f in factors]
        images = [[contains(phi(i), f.vector) for i in range(len(nest))] for f in factors]
        alg = [api["opspace.rank_one_in_alg"](nest, r) for r in p.ones]
        return SimpleNamespace(factors=factors, rank=rank, members=members,
                               images=images, alg=alg)

    def check(self, case, out):
        a = case.adapted
        total = ref.sum_outer(((f.vector, f.functional) for f in out.factors), case.n)
        if total != case.target or not all(out.members):
            return False
        if not len(out.factors) == out.rank == ref.rank(case.target):
            return False
        for f, images in zip(out.factors, out.images):
            kill = a.functional_level(f.functional)
            level = a.vector_level(f.vector)
            if images != [level <= case.phi[i] for i in range(len(a.dims))]:
                return False
            if not all(i <= kill or images[i] for i in range(len(a.dims))):
                return False
        identity = list(range(len(a.dims)))
        for (f, x), (member, witness) in zip(case.ones, out.alg):
            if member != a.rank_one_in_m(identity, f, x):
                return False
            if member:
                w = a.dims.index(witness.dim)
                if not (a.vector_level(x) <= w and a.functional_level(f) >= w - 1):
                    return False
        return True

    def canonical(self, out):
        return json.dumps([
            [[_strs([f.functional])[0], _strs([f.vector])[0]] for f in out.factors],
            out.rank, out.members, out.images,
            [[m, None if w is None else w.dim] for m, w in out.alg],
        ])

    def note(self, case, out, traffic):
        traffic[("n", case.n)] += 1
        traffic[("rank", out.rank)] += 1
        traffic["ones"] += len(out.alg)
        traffic["ones_member"] += sum(m for m, _ in out.alg)

    def describe(self, traffic, cases):
        return {
            "n": _hist(traffic, "n"),
            "rank": _hist(traffic, "rank"),
            "rank_one_member_share": round(traffic["ones_member"] / max(traffic["ones"], 1), 4),
        }


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# The annotation alphabet of nestlab.suites (BELOW_OPTIONS, ABOVE_OPTIONS) as
# documents spell it; kept here so that the inputs never change with the code.
BELOW = (("attained", 1, None), ("attained", "inf", None),
         ("limit", None, "countable"), ("limit", None, "uncountable"))
ABOVE = (("attained", None), ("limit", "countable"), ("limit", "uncountable"))

CHAIN_REQUESTS = (
    ("chain-validate", None), ("chain-regularize", None),
    ("chain-check", "left-continuous"), ("chain-check", "essential"),
    ("chain-check", "pair"), ("chain-check", "p"), ("chain-check", "p-infinity"),
    ("chain-predict", "me"), ("chain-predict", "max-pair"),
    ("chain-predict", "m0"), ("chain-predict", "m0-pair"),
)
CONCRETE_COMMANDS = ("alg", "m-of-phi", "decompose", "rank-one-check")
CONCRETE_SIZES = (2, 3, 4)
CHAIN_DOCS_PER_ROUND = 2


def _frac(rng: random.Random) -> Fraction:
    return Fraction(_nonzero(rng, -3, 3), rng.randint(1, 4))


def _scaled(rng: random.Random, v: list[int]) -> list[str]:
    c = _frac(rng)
    return [str(c * x) for x in v]


def _labels(k: int) -> list[str]:
    return ["0", *(f"N{i}" for i in range(1, k - 1)), "X"]


class Cli(Workload):
    """One request is (document text, command): parse, dispatch, format."""

    name = "cli"
    probe_every = 46  # two rounds

    def round(self, rng, index):
        out = []
        for _ in range(CHAIN_DOCS_PER_ROUND):
            doc = self._chain_doc(rng)
            out.extend(SimpleNamespace(kind="chain", site="cli.run.chain", command=c,
                                       arg=a, doc=doc)
                       for c, a in CHAIN_REQUESTS)
        # concrete requests cycle through every (command, n) pair in turn
        command = CONCRETE_COMMANDS[index % len(CONCRETE_COMMANDS)]
        n = CONCRETE_SIZES[index // len(CONCRETE_COMMANDS) % len(CONCRETE_SIZES)]
        out.append(self._concrete(rng, command, n))
        return out

    # --- chain documents ----------------------------------------------------

    def _chain_doc(self, rng):
        k = rng.randint(3, 8)
        all_infinite = rng.random() < 0.5
        chain = [(None, None, None, *rng.choice(ABOVE))]
        for i in range(1, k):
            below = rng.choice(BELOW)
            if all_infinite and below[1] == 1:
                below = ("attained", "inf", None)
            chain.append((*below, *(rng.choice(ABOVE) if i < k - 1 else (None, None))))
        if rng.random() < 1 / 3:
            value = [rng.choice((0, k - 1))] * k
        else:
            value = _monotone(rng, k, k - 1)
        left = self._left(rng, chain, value)
        phi = _monotone(rng, k, k - 1)
        phi[0] = 0
        phi_left = [v if node[0] == "limit" else None for v, node in zip(phi, chain)]
        psi = [min(a, b) for a, b in zip(_monotone(rng, k, k - 1), phi)]
        psi_left = self._left(rng, chain, psi)
        labels = _labels(k)
        text = json.dumps({
            "version": "nestlab/1",
            "chain": {"nodes": [self._node(lab, node) for lab, node in zip(labels, chain)]},
            "abstract_fn": _tables(labels, value, left),
            "abstract_pair": {"phi": _tables(labels, phi, phi_left),
                              "psi": _tables(labels, psi, psi_left)},
        }, sort_keys=True, indent=2)
        return SimpleNamespace(text=text, chain=chain, labels=labels, value=value,
                               left=left, phi=phi, phi_left=phi_left, psi=psi,
                               psi_left=psi_left, minorants={})

    @staticmethod
    def _left(rng, chain, value):
        return [rng.randint(value[i - 1], value[i]) if node[0] == "limit" else None
                for i, node in enumerate(chain)]

    @staticmethod
    def _node(label, node):
        below, gap, cof, above, coin = node
        item: dict[str, Any] = {"label": label}
        if below is not None:
            item["below"] = {"kind": below}
            if gap is not None:
                item["below"]["gap"] = gap
            if cof is not None:
                item["below"]["cofinality"] = cof
        if above is not None:
            item["above"] = {"kind": above}
            if coin is not None:
                item["above"]["coinitiality"] = coin
        return item

    # --- concrete documents -------------------------------------------------

    def _concrete(self, rng, command, n):
        adapted, dims = _adapted_nest(rng, n, "subset")
        d = adapted.dims
        k = len(d)
        cols = _columns(adapted.s)
        nest = [[_scaled(rng, c) for c in cols[:dd]] for dd in dims]
        payload: dict[str, Any] = {"version": "nestlab/1", "ambient_dim": n, "nest": nest}
        phi = _monotone(rng, k, k - 1)
        target = ones = None
        in_m = False
        if command in ("m-of-phi", "decompose"):
            payload["support_fn"] = phi
        if command == "decompose":
            t = [[rng.randint(-2, 2) if r < d[phi[adapted.block(b)]] else 0
                  for b in range(n)] for r in range(n)]
            c = _frac(rng)
            target = [[c * x for x in row]
                      for row in ref.matmul(ref.matmul(adapted.s, t), adapted.s_inv)]
            payload["operators"] = {"target": [_strs(target)]}
        if command == "rank-one-check":
            in_m = rng.random() < 0.5
            if in_m:
                payload["support_fn"] = phi
            else:
                phi = list(range(k))
            f, x = Factor._rank_one(rng, adapted)
            ones = (_scaled(rng, f), _scaled(rng, x))
            payload["rank_one"] = {"functional": ones[0], "vector": ones[1]}
        if command == "alg":
            phi = list(range(k))
        text = json.dumps(payload, sort_keys=True, indent=2)
        return SimpleNamespace(kind="concrete", site="cli.run.concrete", command=command,
                               arg=None, n=n,
                               doc=SimpleNamespace(text=text), adapted=adapted,
                               phi=phi, target=target, ones=ones, in_m=in_m)

    # --- one request ----------------------------------------------------------

    def run(self, api, case):
        doc = api["documents.parse_document"](case.doc.text)
        try:
            verdict = api[case.site](case.command, doc, case.arg)
        except self.nl.errors.NestlabError as exc:
            verdict = self.nl.cli.Verdict(case.command, {
                "error": {"type": type(exc).__name__, "message": str(exc)}
            })
        return api["cli.to_json"](verdict)

    def check(self, case, out):
        payload = json.loads(out)
        if payload.get("command") != case.command:
            return False
        result = payload["result"]
        if case.kind == "concrete":
            return self._check_concrete(case, result)
        want = self._expect_chain(case)
        if isinstance(want, str):
            return result.get("error", {}).get("type") == want
        return result == want

    def _expect_chain(self, case):
        """The result the chain request must produce, or the name of the
        refusal it must raise."""
        d = case.doc
        chain, labels = d.chain, d.labels
        p_prop, p_inf = ref.p_property(chain), ref.p_infinity(chain)
        admissible = ref.pair_admissible(chain, d.phi, d.psi)
        if case.command == "chain-validate":
            return {"labels": labels,
                    "finite_stratum": [labels[i] for i in ref.finite_stratum(chain)],
                    "p_property": p_prop, "p_infinity": p_inf}
        if case.command == "chain-regularize":
            return self._regularized(d, d.value, d.left)
        if case.command == "chain-check":
            if case.arg == "p-infinity":
                return {"result": p_inf, "finite_stratum_empty": p_inf}
            return {"result": {
                "left-continuous": ref.left_continuous(chain, d.value, d.left),
                "essential": ref.essential(chain, d.value),
                "pair": admissible,
                "p": p_prop,
            }[case.arg]}
        phi = _tables(labels, d.phi, d.phi_left)
        psi = _tables(labels, d.psi, d.psi_left)
        if case.arg == "me":
            if not p_prop:
                return "PPropertyError"
            if not ref.essential(chain, d.value):
                return "NotEssentialError"
            return _tables(labels, d.value, d.left)
        if case.arg == "max-pair":
            if not p_prop:
                return "PPropertyError"
            return {"phi": phi, "psi": psi} if admissible else "PairAdmissibilityError"
        if not p_inf:
            return "PInfinityError"
        if case.arg == "m0":
            if d.value[0] != 0:
                return "NonzeroAtZeroError"
            reg = self._regularized(d, d.value, d.left)
            return {"phi": reg, "psi": reg}
        if not admissible:
            return "PairAdmissibilityError"
        return {"phi": phi, "psi": self._regularized(d, d.psi, d.psi_left)}

    def _regularized(self, d, value, left):
        """Tables of the greatest left-continuous minorant, by brute force;
        kept per document, since all eleven requests share it."""
        key = (tuple(value), tuple(left))
        if key not in d.minorants:
            d.minorants[key] = self._minorant(d.chain, d.labels, value, left)
        return d.minorants[key]

    def _minorant(self, chain, labels, value, left):
        nl = self.nl
        nodes = [nl.chaincalc.ChainNode(
            lab, below=b, gap=(nl.chaincalc.INFINITE if g == "inf" else g),
            cofinality=c, above=a, coinitiality=ci)
            for lab, (b, g, c, a, ci) in zip(labels, chain)]
        f = nl.chaincalc.AbstractSupportFn(
            nl.chaincalc.AbstractNest(tuple(nodes)), tuple(value), tuple(left))
        best = nl.suites.oracle_greatest_lc_minorant(f)
        return _tables(labels, best,
                       [v if node[0] == "limit" else None for v, node in zip(best, chain)])

    @staticmethod
    def _check_concrete(case, result):
        a = case.adapted
        if case.command in ("alg", "m-of-phi"):
            return result["dimension"] == a.dim_formula(case.phi) == len(result["basis"])
        if case.command == "decompose":
            factors = [([Fraction(v) for v in f["vector"]],
                        [Fraction(v) for v in f["functional"]]) for f in result["factors"]]
            return (all(a.rank_one_in_m(case.phi, g, x) for x, g in factors)
                    and ref.sum_outer(factors, case.n) == case.target
                    and len(factors) == ref.rank(case.target))
        f, x = ([Fraction(v) for v in u] for u in case.ones)
        member = a.rank_one_in_m(case.phi, f, x)
        w = result["witness"]
        if result["member"] != member or (w is None) == member:
            return False
        if w is None:
            return True
        level, kill = a.vector_level(x), a.functional_level(f)
        if case.in_m:
            return kill >= w and level <= min(case.phi[w + 1:], default=len(case.phi) - 1)
        return level <= w and kill >= w - 1

    def canonical(self, out):
        return out

    def note(self, case, out, traffic):
        name = case.command if case.arg is None else f"{case.command} {case.arg}"
        traffic[("command", name)] += 1
        traffic["concrete"] += case.kind == "concrete"
        traffic["refused"] += '"error"' in out

    def describe(self, traffic, cases):
        return {
            "commands": _hist(traffic, "command"),
            "concrete_share": round(traffic["concrete"] / max(cases, 1), 4),
            "refusal_share": round(traffic["refused"] / max(cases, 1), 4),
        }


def _tables(labels, value, left) -> dict:
    return {
        "value": {labels[i]: labels[v] for i, v in enumerate(value)},
        "left_limit": {labels[i]: labels[v] for i, v in enumerate(left) if v is not None},
    }


WORKLOADS: dict[str, Workload] = {w.name: w for w in (Bimodule(), Factor(), Cli())}
