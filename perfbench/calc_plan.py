"""Query plans for the ``calc_session`` workload, and an independent oracle.

Everything here is plain Python and never imports ``hyperring``: the plan
is made before the program under test runs, and the oracle re-derives
answers from the residue-ring definition a o b = {m*a*b mod n : m in M}.

The plan draws from a fixed *universe* of queries, so the per-query output
digests recorded once (``reference/calc_digests.json``) cover every seed:

* every ring spec of the universe has a fixed menu of calculator queries;
* a seed picks a stratified pool of specs; the stream is every pooled
  spec's menu (so each ring recurs) plus some product queries, shuffled.

Edge inputs that end in a traceback at the recorded commit never enter
the timed stream (a failing query there would count against the run);
they run after it as *probes*, see :func:`probe_queries`.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations

MODULUS_MIN = 2
MODULUS_MAX = 20
ENUM_CAP = 16           # the calculator's default cap for ideal enumeration
TABLE_MODULUS_MAX = 14  # table-form specs: the benchmark writes the tables
PRODUCT_ORDER_MAX = 30  # full-check products are cubic in their order
PER_CLASS = 2           # pooled zn specs per (modulus, multiplier count)
PRODUCTS = 24           # product queries per pass, one per order band
PROBE_REPEATS = 3


def _tag(text: str) -> int:
    """A stable small integer derived from a string (not Python's hash)."""
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16)


# ---------------------------------------------------------------------------
# the residue-ring definition, used to write specs and by the oracle


def cell(n: int, mults, a: int, b: int) -> frozenset:
    return frozenset((m * a * b) % n for m in mults)


def table_doc(n: int, mults, name: str) -> dict:
    return {
        "kind": "table",
        "name": name,
        "order": n,
        "zero": 0,
        "add": [[(a + b) % n for b in range(n)] for a in range(n)],
        "neg": [(-a) % n for a in range(n)],
        "hyp": [[sorted(cell(n, mults, a, b)) for b in range(n)] for a in range(n)],
    }


def good_scales(n: int, mults) -> list:
    """k whose map x -> k*x is a good endomorphism: k*m = k*k*m mod n for m in M."""
    return [k for k in range(n) if all((k * m - k * k * m) % n == 0 for m in mults)]


# ---------------------------------------------------------------------------
# the universe


class Spec:
    """One ring spec of the universe: Z_n[M] in zn_multiplier or table form."""

    __slots__ = ("key", "n", "mults", "form")

    def __init__(self, n: int, mults: tuple, form: str):
        self.n = n
        self.mults = mults
        self.form = form
        self.key = f"{form}:{n}:{','.join(map(str, mults))}"

    @property
    def name(self) -> str:
        prefix = "Z" if self.form == "zn" else "T"
        return f"{prefix}{self.n}[{','.join(map(str, self.mults))}]"

    def document(self) -> dict:
        if self.form == "zn":
            return {"kind": "zn_multiplier", "modulus": self.n, "multipliers": list(self.mults)}
        return table_doc(self.n, self.mults, self.name)


def _spread(items: list, count: int) -> list:
    """Up to ``count`` items evenly spaced through ``items``."""
    if len(items) <= count:
        return items
    step = len(items) / count
    return [items[int(i * step)] for i in range(count)]


def universe() -> list:
    specs = []
    for n in range(MODULUS_MIN, MODULUS_MAX + 1):
        families = [(m,) for m in range(n)]
        families += _spread(list(combinations(range(n), 2)), 4)
        families += _spread(list(combinations(range(n), 3)), 4)
        for pos, mults in enumerate(families):
            specs.append(Spec(n, mults, "zn"))
            if n <= TABLE_MODULUS_MAX and pos % 3 == 1:
                specs.append(Spec(n, mults, "table"))
    return specs


def _ideal_choices(n: int) -> list:
    """Proper hyperideals d*Z_n (d | n, d > 1); every subgroup of Z_n is one."""
    return [d for d in range(2, n + 1) if n % d == 0]


def _ideal_text(n: int, d: int, style: int) -> str:
    elements = list(range(0, n, d))
    if style == 0:
        return f"gen:{d % n}"
    if style == 1:
        return ",".join(map(str, elements))
    if style == 2:
        return json.dumps({"generators": [d % n]})
    return json.dumps({"elements": elements})


def _alpha_text(spec: Spec, k: int, style: int) -> str:
    if k == 1:
        return "id"
    if k == 0:
        return "zero"
    if spec.form == "table":
        return "map:" + ",".join(str((k * x) % spec.n) for x in range(spec.n))
    if style % 2:
        return json.dumps({"kind": "scale", "factor": k})
    return f"scale:{k}"


def menu(spec: Spec) -> list:
    """The fixed queries of one spec, as (key, command, extra-argv, check)."""
    n = spec.n
    tag = _tag(spec.key)
    ideals = _ideal_choices(n)
    d1 = ideals[tag % len(ideals)]
    d2 = ideals[(tag // 7) % len(ideals)]
    scales = good_scales(n, spec.mults)
    k = scales[(tag // 11) % len(scales)]
    i1 = _ideal_text(n, d1, tag % 4)
    i2 = _ideal_text(n, d2, (tag // 5) % 4)
    alpha = _alpha_text(spec, k, tag // 13)
    as_json = ["--json"] if tag % 2 else []
    queries = [
        ("validate", as_json, None),
        ("props", [], None),
        ("nil", [], ("nil", None)),
        ("nil", ["--alpha", alpha] + as_json, ("nil", k)),
        ("endos", as_json, None),
        ("alpharadical", ["--ideal", i2, "--alpha", alpha], None),
        ("quotient", ["--ideal", i1], ("quotient", d1)),
    ]
    if n <= ENUM_CAP:
        # Above the cap these two end in CapExceeded: see probe_queries.
        queries += [
            ("classify", ["--ideal", i1] + as_json, ("classify", d1, None)),
            ("classify", ["--ideal", i2, "--alpha", alpha], ("classify", d2, k)),
            ("radical", ["--ideal", i2], None),
        ]
    out = []
    for command, extra, check in queries:
        key = f"{command}|{spec.key}|{' '.join(extra)}"
        out.append((key, command, extra, check))
    return out


def product_pairs() -> list:
    small = [s for s in universe() if s.form == "zn" and s.n <= 6 and len(s.mults) <= 2]
    small = _spread(small, 16)
    return [(a, b) for a in small for b in small if a.n * b.n <= PRODUCT_ORDER_MAX]


def universe_queries() -> list:
    """Every query any seed can draw, as plan entries (see :func:`entry`)."""
    out = []
    for spec in universe():
        for key, command, extra, check in menu(spec):
            out.append(entry(key, command, [spec], extra, check))
    for a, b in product_pairs():
        out.append(_product_entry(a, b))
    return out


def entry(key, command, specs, extra, check) -> dict:
    return {
        "key": key,
        "command": command,
        "specs": [s.key for s in specs],
        "extra": list(extra),
        "check": check,
        "ring": [specs[0].n, list(specs[0].mults)],
    }


def _product_entry(a: Spec, b: Spec) -> dict:
    return entry(f"product|{a.key}|{b.key}", "product", [a, b], [], ("product", a.n * b.n))


# ---------------------------------------------------------------------------
# a seeded plan


def make_plan(seed: int, per_class: int = PER_CLASS, products: int = PRODUCTS,
              modulus_max: int = MODULUS_MAX) -> dict:
    """The stream and probes for one seed; the same seed gives the same plan.

    The pool is stratified: per modulus it holds ``per_class`` zn specs of
    each multiplier count and one table spec, chosen by the seed, and each
    pooled ring gets its whole menu, so every ring recurs across queries.
    Products are one pair from each of ``products`` order bands. Drawing
    the mix uniformly instead lets the seed shift it towards large moduli,
    whose queries cost up to n**3, and the run-to-run spread follows.
    """
    rng = random.Random(seed)
    classes = {}
    for spec in universe():
        if spec.n <= modulus_max:
            size = len(spec.mults) if spec.form == "zn" else 0
            classes.setdefault((spec.n, spec.form, size), []).append(spec)
    pool = []
    for key in sorted(classes):
        members = classes[key]
        pool += rng.sample(members, min(1 if key[1] == "table" else per_class, len(members)))
    stream = [entry(key, command, [spec], extra, check)
              for spec in pool for key, command, extra, check in menu(spec)]
    pairs = sorted((p for p in product_pairs() if max(p[0].n, p[1].n) <= modulus_max),
                   key=lambda p: (p[0].n * p[1].n, p[0].key, p[1].key))
    for band in range(products):
        lo, hi = band * len(pairs) // products, (band + 1) * len(pairs) // products
        stream.append(_product_entry(*pairs[rng.randrange(lo, hi)]))
    rng.shuffle(stream)
    used = {key for item in stream for key in item["specs"]}
    return {
        "seed": seed,
        "specs": {s.key: s.document() for s in universe() if s.key in used},
        "stream": stream,
        "probes": probe_queries(rng),
    }


# ---------------------------------------------------------------------------
# edge inputs, run after the timed stream


def probe_queries(rng: random.Random) -> list:
    """Bad and edge inputs with the outcomes they may have.

    ``allowed`` lists acceptable outcomes: an exit code, or the name of an
    exception class that escaped ``cli.main`` at the recorded commit (each
    such escape is a failed query). A spec with a huge modulus is left out
    on purpose: the calculator has no cap on parsed orders, so it would
    allocate an n*n table without bound and stall the run.
    """
    probes = []
    for _ in range(PROBE_REPEATS):
        small = rng.randrange(3, 13)
        big = rng.randrange(ENUM_CAP + 1, MODULUS_MAX + 1)
        big_ideal = rng.choice(_ideal_choices(big)) % big
        probes += [
            _probe("validate", {"kind": "zn_multiplier", "modulus": 1,
                                "multipliers": [rng.randrange(1, 5)]}, [], ["BadModulus", 1, 2]),
            _probe("classify", _zn(small), ["--ideal", '{"elements":"ab"}'], ["ValueError", 2]),
            _probe("classify", _zn(small), ["--ideal", "0", "--alpha", '{"kind":"scale"}'],
                   ["KeyError", 2]),
            _probe("classify", _zn(big), ["--ideal", f"gen:{big_ideal}"], ["CapExceeded", 1]),
            _probe("radical", _zn(big), ["--ideal", f"gen:{big_ideal}"], ["CapExceeded", 1]),
            # Handled cleanly at the recorded commit.
            _probe("endos", _zn(big), [], [1]),
            _probe("props", {"kind": "zn_multiplier", "modulus": "x", "multipliers": [1]}, [], [2]),
            _probe("validate", {"kind": "cube"}, [], [2]),
            _probe("validate", _broken_table(small), [], [1]),
        ]
    return probes


def _zn(n: int) -> dict:
    return {"kind": "zn_multiplier", "modulus": n, "multipliers": [1, n - 1]}


def _broken_table(n: int) -> dict:
    doc = table_doc(n, (1,), f"broken{n}")
    doc["hyp"][1][1] = [0]  # 1 o 1 no longer equals {1}: associativity fails
    return doc


def _probe(command, doc, extra, allowed) -> dict:
    return {"command": command, "doc": doc, "extra": list(extra), "allowed": allowed}


# ---------------------------------------------------------------------------
# the oracle


def _power_orbit(n, mults, x):
    seen = []
    acc = frozenset((x,))
    while acc not in seen:
        seen.append(acc)
        acc = frozenset(v for t in acc for v in cell(n, mults, t, x))
    return seen


def oracle_answer(n: int, mults, check) -> dict:
    """Independently derived answers for one checked query."""
    kind = check[0]
    if kind == "nil":
        k = check[1]
        amap = (lambda t: t) if k is None else (lambda t: (k * t) % n)
        nil = sorted(x for x in range(n) if any(any(amap(t) == 0 for t in p)
                                               for p in _power_orbit(n, mults, x)))
        return {"alpha_nilradical" if k is not None else "nilradical": nil}
    if kind == "quotient":
        return {"order": check[1]}
    if kind == "product":
        return {"order": check[1]}
    d, k = check[1], check[2]
    ideal = frozenset(range(0, n, d))
    outside = [x for x in range(n) if x not in ideal]
    prime = not any(cell(n, mults, x, y) <= ideal for x in outside for y in outside)
    answer = {"prime": prime}
    if k is not None:
        answer["alpha_prime"] = not any(
            cell(n, mults, x, y) <= ideal
            for x in outside for y in range(n) if (k * y) % n not in ideal
        )
    return answer


def parse_output(command: str, text: str) -> dict:
    """The fields of one calculator output, from text or JSON form."""
    first = text.lstrip()
    if command in ("quotient", "product") or first.startswith("{"):
        return json.loads(first.splitlines()[0])
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        fields[key] = value
    for key in ("prime", "alpha_prime"):
        if key in fields:
            fields[key] = fields[key] == "true"
    for key in ("nilradical", "alpha_nilradical"):
        if key in fields:
            body = fields[key].strip("{}")
            fields[key] = [int(v) for v in body.split(",") if v]
    return fields


def oracle_mismatch(item: dict, output: str):
    """None when the output agrees with the oracle, else a short reason.

    An output that does not parse (an escaped query leaves none, a rejected
    one an ``invalid: ...`` line) is a mismatch too.
    """
    n, mults = item["ring"]
    want = oracle_answer(n, mults, item["check"])
    try:
        got = parse_output(item["command"], output)
    except (ValueError, IndexError):
        got = None
    if not isinstance(got, dict):
        return f"{item['key']}: output {output[:60]!r} is no {item['command']} answer"
    for key, value in want.items():
        if got.get(key) != value:
            return f"{item['key']}: {key} is {got.get(key)!r}, oracle says {value!r}"
    return None
