"""Record the program's scattering classifications on a fixed probe set.

    python3 bench/capture.py            # rewrites bench/data/seed_classes.json

The capture was taken from the commit that introduced the benchmark.  The
self-tests hold the benchmark's own classifier (``oracle.classify``) to it,
so the classifier that judges every sweep row is known to agree with the
program as it was when the benchmark was defined.  Re-run it only to extend
the probe set, never to absorb a changed classification.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CAPTURE = HERE / "data" / "seed_classes.json"


def probes() -> list[tuple[str, float, float | None, float]]:
    """(alt, v0, width or None for a step, E) across the regimes of both couplings."""
    rng = random.Random("seed-classes")
    out = []
    for i in range(600):
        alt = "d1" if i % 2 == 0 else "d2"
        v0 = float(f"{rng.uniform(50.0, 5000.0):.6g}")
        width = None if i % 3 == 0 else float(f"{rng.uniform(5e-4, 1.3):.6g}")
        e = float(f"{rng.uniform(515.0, v0 + 2000.0):.6g}")
        out.append((alt, v0, width, e))
    return out


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from diracpair import scatter1d
    from diracpair.core import Alternative

    rows = []
    for alt, v0, width, e in probes():
        a = Alternative.from_string(alt)
        if width is None:
            res = scatter1d.step_transmission(a, v0, e)
        else:
            res = scatter1d.barrier_transmission(a, scatter1d.PotentialProfile.barrier(v0, width), e)
        rows.append([alt, v0, width, e, res.classification])
    CAPTURE.parent.mkdir(exist_ok=True)
    CAPTURE.write_text('{"probes": [\n' + ",\n".join(json.dumps(r) for r in rows) + "\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
