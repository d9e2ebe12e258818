"""Record the sweep reference values that the lobe-scan-81 check compares
against: t_min at every sample of every window, from the code in this
checkout.

    python3 bench/record_reference.py

Run it only on the commit whose outputs are the reference; it rewrites
``bench/reference.json``.
"""

import json
import sys

from run import OUT, prepare


def main():
    error = prepare()
    if error is not None:
        print(f"record_reference: {error}", file=sys.stderr)
        return 2
    import numpy as np

    import neuspec.cli
    from workloads import REFERENCE, SCAN_WINDOWS, WORKLOADS

    wl = WORKLOADS["lobe-scan-81"]
    OUT.mkdir(exist_ok=True)
    out = str(OUT / "record-reference.csv")
    windows = {}
    for k in range(SCAN_WINDOWS):
        op = wl.window_op(k, out)
        if neuspec.cli.main(op.argv) != 0:
            print(f"record_reference: sweep failed: {op.argv}",
                  file=sys.stderr)
            return 1
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        windows[str(k)] = [float(t) for t in rows[:, 1]]
        print(k, windows[str(k)], flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump({wl.name: windows}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
