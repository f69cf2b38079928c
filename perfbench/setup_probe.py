"""Cold ``import ringrigidity.cli`` plus parser build, in this fresh interpreter.

Usage: PYTHONPATH=src python3 perfbench/setup_probe.py INTERVAL_S NOMINAL_S

Prints the raw seconds and the speed factor that ``speed.SpeedProbe``
measured over the same interval. Only builtin modules are loaded before
the timer starts.
"""

import sys
import time

import speed

probe = speed.SpeedProbe(float(sys.argv[1]), float(sys.argv[2]))
with probe:
    start = time.perf_counter()
    import ringrigidity.cli

    ringrigidity.cli.build_parser()
    seconds = time.perf_counter() - start
print(seconds, probe.factor(0, probe.mark()))
