"""Set-up time of one fresh interpreter, as a CLI user pays it before integrating.

    PYTHONPATH=src python3 bench/setup_probe.py <config>...

Imports ueslab, loads every config and assembles its loops (the full loop at
each probe omega, and the averaged loop for configs with a probe), then
prints the seconds that took.
"""

import sys
import time

start = time.perf_counter()

import ueslab.cli as cli  # noqa: E402  (the import is part of what is timed)
from ueslab.averaging import averaged_closed_loop  # noqa: E402

for arg in sys.argv[1:]:
    cfg = cli.resolve_config(arg)
    omegas = cfg.probe.omega_values if cfg.probe is not None else (cfg.params.omega,)
    for omega in omegas:
        cli.es_closed_loop(cfg.params.with_omega(omega), cfg.map)
    if cfg.probe is not None:
        averaged_closed_loop(cfg.params, cfg.map)

print(repr(time.perf_counter() - start))
