"""One measuring process: ``python3 -m bench.child --workload NAME ...``.

Host-speed sampling starts before the program is imported, so that set-up
time is scaled like iteration time; then :func:`bench.workloads.main`
measures the workload and prints its JSON result line.
"""

import sys

from bench.hostspeed import SAMPLER

SAMPLER.start()

try:
    from bench.workloads import main  # noqa: E402  (imports the program)

    status = main()
finally:
    # The timer outlives the handler at interpreter exit, so stop it first.
    SAMPLER.stop()
sys.exit(status)
