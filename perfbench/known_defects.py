"""Reproduces the two program defects that keep inputs out of anomaly-audit.

    python3 perfbench/known_defects.py --seed 7

Run it from the root of a source checkout.  It prints one line per defect
and exits with code 1 while either still shows, 0 once both are gone:

- a `min`/`max` composite with a Dirac part is a `MinMaxCdf` with an atom;
  the paths engine raises `TypeError: no density for Dirac(...)` on a
  2-letter word over it;
- on 2-letter words over `min`/`max` composites with uniform parts, the
  inductive engine misses the paths engine by more than the README's
  cross-engine tolerance.

When both are fixed, anomaly-audit can take `dirac` contexts and longer
words over uniform ones again (see AUDIT_CONTEXTS in workloads.py).
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import smdpcheck as api  # noqa: E402

import gen  # noqa: E402
import workloads  # noqa: E402

INSTANCES = 10  # seeded instances tried per defect and operator


def _composites(seed, kind):
    for i in range(INSTANCES):
        rng = random.Random(seed * 1_000_003 + i)
        u_text, _ = gen.audit_components(rng)
        w_text = gen.audit_context(rng, kind)
        t = round(gen.mean_residence(u_text) + gen.mean_residence(w_text), 6)
        for op in ("min", "max"):
            m = api.compose(*map(api.parse_model, (u_text, w_text)), op)
            yield f"{op}/{kind}/{i}", m, api.TimeBoundedCylinder(("a", "a"), t)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    raised = []
    for name, m, c in _composites(args.seed, "dirac"):
        try:
            api.prob_cylinder_paths(m, api.uniform_scheduler(m), m.initial, c)
        except TypeError as exc:
            raised.append(f"{name}: {exc}")
    print(f"dirac contexts: paths engine raised on {len(raised)} of {2 * INSTANCES} composites"
          + (f", first {raised[0]}" if raised else ""))

    worst, apart = 0.0, 0
    for name, m, c in _composites(args.seed, "uniform"):
        sch = api.uniform_scheduler(m)
        gap = abs(api.prob_cylinder_paths(m, sch, m.initial, c)
                  - api.prob_cylinder_inductive(m, sch, m.initial, c))
        worst = max(worst, gap)
        apart += gap > workloads.PROB_ENGINE_TOL
    print(f"uniform contexts: engines differ by more than {workloads.PROB_ENGINE_TOL:g} "
          f"on {apart} of {2 * INSTANCES} composites, at most {worst:.3g}")
    return 1 if raised or apart else 0


if __name__ == "__main__":
    sys.exit(main())
