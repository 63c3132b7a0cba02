"""What a CLI call pays before its first chunk, as one fresh process.

Imports bpire (numpy, scipy), then loads and checks each config named on the
command line, as `bpire <experiment>` does before sampling.

    python3 perfbench/setup_probe.py EXPERIMENT=CONFIG [...]
"""

import sys

from bpire.config import load_config
from bpire.env_model import check_conditions

for arg in sys.argv[1:]:
    experiment, path = arg.split("=", 1)
    if not check_conditions(load_config(path, experiment=experiment).model).passed:
        sys.exit(2)
