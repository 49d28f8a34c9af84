"""Seeded generator of model text for the three benchmark workloads.

Every function takes a `random.Random` and returns model text in the
smdpcheck format; the checker under test receives only this text.  Each
family bounds its cost by structure (states, branching, depth, word length)
and never by a measured time or a verdict, so no instance is ever dropped.

Families and why they exist:

- `ft_pair`: two-label models with 2-3 states for `ft-sweep`.  At every
  state label a splits its mass over two targets and label b goes to one, so
  a word with k letters a has 2^k state paths whatever the seed, and the
  relations lattice search and the
  `_FastWord` power-product tables do the work, while every residence is
  exponential and no quadrature or sampling runs.  "holds" pairs scale every
  rate by SPEEDUP over one shared kernel (the same scheduler matches, so the
  answer is NotRefuted), "reversed" pairs swap them (the most mixed adversary
  already forces both labels' weights up at the initial state, so the answer
  is Refuted), and "unrelated" pairs are independent models.
- `deep_model`: one-label models with 4-8 states, each state branching to
  exactly two successors, for `deep-paths`.  State i takes entry i mod 3 of
  the palette exp(r), exp(3r), dirac(1/r), so the number of state paths is
  2^n for a word of length n while the number of distinct residence laws
  stays polynomial in n.  Only the scale r is random: with time bounds sized
  by the mean residence, the grid sizes and uniformization lengths depend on
  the structure alone.  The initial state is always exp(r), so a "reversed"
  pair differs on the one-letter word.
- `audit_components` / `audit_context` / `renamed_copy`: one-label models
  for `anomaly-audit`, the paper's pipeline.  The context's residences are
  `exp`, `uniform` or `dirac`; under `min`/`max` the non-exponential ones
  yield `MinMaxCdf` composites, which drive dominance grids, nested
  quadrature and sampling by bisection.  Product-rate composition is only
  defined for exponential operands, so its contexts are exponential.  The
  workload uses `exp` and `uniform` contexts; `dirac` ones serve
  `known_defects.py`, because their `min`/`max` composites raise.
"""

from __future__ import annotations

SPEEDUP = 1.5  # rate factor of the faster model of a "holds" pair
FT_KINDS = ("holds", "reversed", "unrelated")


def model_text(labels, states, residence, transitions) -> str:
    """Renders a model whose initial state is its first; `residence` maps
    state -> literal, `transitions` maps (state, label) -> {target: probability}."""
    lines = [f"labels: {' '.join(labels)}", f"states: {' '.join(states)}",
             f"initial: {states[0]}", "residence:"]
    lines += [f"  {s} {residence[s]}" for s in states]
    lines.append("transitions:")
    for (s, a), row in transitions.items():
        lines += [f"  {s} {a} {t} {p!r}" for t, p in row.items()]
    return "\n".join(lines) + "\n"


def _lit(kind: str, value: float) -> str:
    return f"{kind}({value!r})"


def _scaled(spec, factor: float, prefix: str):
    """The same kernel with every exp rate times factor and every Dirac point
    divided by it (so factor > 1 is uniformly faster), states renamed."""
    labels, states, residence, transitions = spec
    rename = {s: prefix + s[1:] for s in states}
    res = {}
    for s, (kind, value) in residence.items():
        res[rename[s]] = (kind, round(value * factor if kind == "exp" else value / factor, 12))
    trans = {(rename[s], a): {rename[t]: p for t, p in row.items()}
             for (s, a), row in transitions.items()}
    return labels, [rename[s] for s in states], res, trans


def _render(spec) -> str:
    labels, states, residence, transitions = spec
    return model_text(labels, states, {s: _lit(*residence[s]) for s in states}, transitions)


def _two_label_spec(rng, n: int, prefix: str):
    states = [f"{prefix}{i}" for i in range(n)]
    residence = {s: ("exp", round(rng.uniform(0.3, 3.0), 1)) for s in states}
    transitions = {}
    for s in states:
        mass = rng.choice((0.6, 0.8, 1.0))
        t1, t2 = rng.sample(states, 2)
        p = rng.choice((0.3, 0.5, 0.7))
        transitions[(s, "a")] = {t1: round(mass * p, 6), t2: round(mass * (1.0 - p), 6)}
        mass = rng.choice((0.6, 0.8, 1.0))
        t1, t2 = rng.sample(states, 2)
        p = rng.choice((0.3, 0.5, 0.7))
        transitions[(s, "b")] = {t1: round(mass * p, 6), t2: round(mass * (1.0 - p), 6)}
    return ("a", "b"), states, residence, transitions


def ft_pair(rng, kind: str, n_states: int):
    """(fast text, slow text) of an ft-sweep instance of the given kind."""
    base = _two_label_spec(rng, n_states, "v")
    if kind == "unrelated":
        return _render(_two_label_spec(rng, n_states, "u")), _render(base)
    fast = _scaled(base, SPEEDUP, "u")
    if kind == "holds":
        return _render(fast), _render(base)
    if kind == "reversed":
        return _render(base), _render(fast)
    raise ValueError(f"unknown ft kind {kind!r}")


def _deep_spec(rng, n: int, prefix: str):
    states = [f"{prefix}{i}" for i in range(n)]
    r = round(rng.uniform(0.5, 1.0), 3)
    palette = (("exp", r), ("exp", round(3.0 * r, 3)), ("dirac", round(1.0 / r, 3)))
    residence = {s: palette[i % 3] for i, s in enumerate(states)}
    transitions = {}
    for s in states:
        t1, t2 = rng.sample(states, 2)
        p = rng.choice((0.3, 0.5, 0.7))
        transitions[(s, "a")] = {t1: p, t2: round(1.0 - p, 6)}
    return ("a",), states, residence, transitions


def deep_model(rng, n_states: int) -> str:
    return _render(_deep_spec(rng, n_states, "s"))


def deep_pair(rng, kind: str, n_states: int):
    """(fast text, slow text) of a one-label "holds" or "reversed" pair."""
    base = _deep_spec(rng, n_states, "v")
    fast = _scaled(base, SPEEDUP, "u")
    if kind == "holds":
        return _render(fast), _render(base)
    if kind == "reversed":
        return _render(base), _render(fast)
    raise ValueError(f"unknown deep-paths pair kind {kind!r}")


def mean_residence(text: str) -> float:
    """Mean of the residence literals in a model text (sizes time bounds)."""
    means = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and "(" in parts[1]:
            kind, _, arg = parts[1].partition("(")
            vals = [float(x) for x in arg.rstrip(")").split(",")]
            means.append(1.0 / vals[0] if kind == "exp" else sum(vals) / len(vals))
    return sum(means) / len(means)


def audit_components(rng):
    """(U text, V text): a one-label 3-state chain with a branch, U faster."""
    states = ["v0", "v1", "v2"]
    residence = {s: ("exp", round(rng.uniform(0.4, 2.0), 1)) for s in states}
    p = rng.choice((0.5, 0.7))
    transitions = {("v0", "a"): {"v1": p, "v2": round(1.0 - p, 6)},
                   ("v1", "a"): {"v2": 1.0},
                   ("v2", "a"): {"v0": 1.0}}
    spec = (("a",), states, residence, transitions)
    return _render(_scaled(spec, SPEEDUP, "u")), _render(spec)


def audit_context(rng, kind: str) -> str:
    """A one-label 3-state cyclic context whose residences are all of `kind`."""
    names = ["w0", "w1", "w2"]
    residence = {}
    for s in names:
        if kind == "exp":
            residence[s] = _lit("exp", round(rng.uniform(0.5, 3.0), 1))
        elif kind == "uniform":
            lo = round(rng.uniform(0.0, 0.5), 2)
            residence[s] = f"uniform({lo!r},{round(lo + rng.uniform(0.5, 1.5), 2)!r})"
        elif kind == "dirac":
            residence[s] = _lit("dirac", rng.choice((0.25, 0.5, 0.75, 1.0)))
        else:
            raise ValueError(f"unknown context kind {kind!r}")
    transitions = {("w0", "a"): {"w1": 1.0}, ("w1", "a"): {"w2": 1.0}, ("w2", "a"): {"w0": 1.0}}
    return model_text(("a",), names, residence, transitions)


def renamed_copy(rng, text: str) -> str:
    """The same model with its states renamed in a shuffled order and
    declared in reverse, hence bisimilar to the original."""
    lines = [line.split("#", 1)[0].rstrip() for line in text.splitlines()]
    lines = [line for line in lines if line.strip()]
    states = next(line.split()[1:] for line in lines if line.startswith("states:"))
    rename = {s: f"x{i}" for i, s in enumerate(rng.sample(states, len(states)))}
    out = []
    for line in lines:
        if line.startswith("states:"):
            out.append("states: " + " ".join(rename[s] for s in reversed(states)))
        else:
            indent = line[:len(line) - len(line.lstrip())]
            out.append(indent + " ".join(rename.get(tok, tok) for tok in line.split()))
    return "\n".join(out) + "\n"
