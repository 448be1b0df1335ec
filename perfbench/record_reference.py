"""Record the optimize-sweep references into reference.json.

The optimize-sweep check accepts a point whose MI, evaluated independently
of awgn_mi, is at most 1e-4 bpcu below the value recorded here, so a better
optimizer passes and one that stops early fails. Re-record only when the
reference itself is meant to change:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from signshape import midist  # noqa: E402

from workloads import OptimizeSweep  # noqa: E402


def main() -> None:
    doc = {}
    for m, P, grid, _ in OptimizeSweep.sweeps:
        curve = midist.mi_curve_optimized(m, P, grid)
        doc[f"m{m}_P{P}"] = {
            "snr_db": list(curve.snr_db),
            "mi_bpcu": list(curve.mi_bpcu),
            "probs": [list(p.probs) for p in curve.profiles],
        }
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
