"""Child process timed by the ``setup_s`` metric.

Imports the library from the checkout, builds the named workload's config
and grid, then prints ``ready``.  The parent times from spawning this
interpreter to reading that line.

Usage: python3 perfbench/setup_probe.py <workload>
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.build(sys.argv[1])
    print("ready", flush=True)
