"""Set-up probe: import the package, load the given configs, say "ready".

    python3 perfbench/probe.py CONFIG...

run.py times a fresh interpreter running this from spawn to the "ready"
line, which covers interpreter start, the `poisson_strata` import and
`load_config` (with the group character of paired configs).
"""

import sys

from poisson_strata.cli import load_config

for path in sys.argv[1:]:
    load_config(path)
sys.stdout.write("ready\n")
sys.stdout.flush()
