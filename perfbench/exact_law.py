"""The exact stationary law of a config at several state caps.

One benchmark operation: `build_kernel` plus `stationary_power_iteration`
per cap, the computation behind the acceptance fixture `exact_law_a`.  For
each cap it saves the pmf to `<out>/pmf_<cap>.npy`, and the clipped mass
the oracle reports and the stationarity residual ||pi P - pi||_1 to
`<out>/exact_law.json`.

    python3 perfbench/exact_law.py --config CFG --out DIR --caps 1024 2048
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from bpire import config, oracle


def compute(config_path, caps, out_dir) -> None:
    model = config.load_config(config_path, experiment="oracle").model
    os.makedirs(out_dir, exist_ok=True)
    summary = {}
    for cap in caps:
        kernel = oracle.build_kernel(model.env, cap)
        law = oracle.stationary_power_iteration(kernel)
        np.save(os.path.join(out_dir, f"pmf_{cap}.npy"), law.pmf)
        summary[str(cap)] = {
            "clipped": law.residual,
            "stationarity": float(np.abs(law.pmf @ kernel.matrix - law.pmf).sum()),
        }
    with open(os.path.join(out_dir, "exact_law.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--caps", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    compute(args.config, args.caps, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
