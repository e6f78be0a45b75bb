#!/usr/bin/env python3
"""Compare the saved outputs of two benchmark result directories.

    python3 perfbench/compare.py OLD/perfbench/results NEW/perfbench/results

For every velocity output both sides saved (``outputs/<workload>/<seq>.npz``)
it prints the largest absolute difference of any velocity component, max
|dv| in m/s, over the output times both sides share. For the simulate-export
workload it says whether the SHA-256 of each event stream is unchanged.
Exit code 0 when every output is identical, 1 otherwise.
"""

import glob
import json
import os
import sys

import numpy as np


def _velocity_rows(old_dir, new_dir):
    rows = []
    for old in sorted(glob.glob(os.path.join(old_dir, "outputs", "*", "*.npz"))):
        rel = os.path.relpath(old, os.path.join(old_dir, "outputs"))
        new = os.path.join(new_dir, "outputs", rel)
        if not os.path.exists(new):
            rows.append((rel, "missing in the new results", False))
            continue
        with np.load(old) as a, np.load(new) as b:
            common, ia, ib = np.intersect1d(a["t"], b["t"], return_indices=True)
            if len(common) == 0:
                rows.append((rel, "no common output times", False))
                continue
            dv = float(np.max(np.abs(a["v"][ia] - b["v"][ib])))
            same = dv == 0.0 and len(a["t"]) == len(b["t"]) == len(common)
            rows.append((rel, f"max |dv| {dv:.3e} m/s over {len(common)} of "
                              f"{len(a['t'])}/{len(b['t'])} samples", same))
    return rows


def _stream_digests(results_dir):
    digests = {}
    for path in sorted(glob.glob(os.path.join(results_dir,
                                              "simulate-export.*.json"))):
        with open(path) as fh:
            for outcomes in json.load(fh)["sequences"]:
                for o in outcomes:
                    for key, value in o["digests"].items():
                        digests.setdefault(f"{o['name']}/{key}", value)
    return digests


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    old_dir, new_dir = argv
    rows = _velocity_rows(old_dir, new_dir)
    old_d, new_d = _stream_digests(old_dir), _stream_digests(new_dir)
    for key, value in old_d.items():
        if key not in new_d:
            rows.append((key, "missing in the new results", False))
        else:
            same = new_d[key] == value
            rows.append((key, "sha256 unchanged" if same else "sha256 changed",
                         same))
    for name, text, same in rows:
        print(f"{'same' if same else 'DIFF'}  {name}: {text}")
    return 0 if rows and all(same for _, _, same in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
