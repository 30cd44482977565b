"""Times one cold set-up of rclab in this fresh interpreter.

    python3 setup_probe.py SRC_DIR CONFIGS_JSON

A set-up is the import of every rclab module, then
`ExperimentConfig.from_dict` and `Experiment()` for each config.  Prints
the seconds it took, then the reference scale (see reference.py) of
bursts run just before and just after it.  Each probe runs in its own
interpreter because import time depends on the per-process string-hash
seed.
"""

import json
import sys
import time

from reference import Reference

BURST_S = 0.05


def main(src, configs_json):
    ref = Reference()
    ref.burst(BURST_S)
    start = time.perf_counter()
    sys.path.insert(0, src)
    from rclab import checker, simulator, valency  # noqa: F401  (imports every layer)
    from rclab.config import ExperimentConfig
    from rclab.experiment import Experiment

    for cfg in json.loads(configs_json):
        Experiment(ExperimentConfig.from_dict(cfg))
    took = time.perf_counter() - start
    ref.burst(BURST_S)
    return took, ref.scale()


if __name__ == "__main__":
    print("%r %r" % main(sys.argv[1], sys.argv[2]))
