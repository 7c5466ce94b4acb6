"""Set-up probe: a fresh process that imports hashnet and, when given a
code file, loads it with read_codes, then reports when it was ready.

    python3 probe.py SRC [CODES]

Prints one JSON line with the CLOCK_MONOTONIC reading at ready, which the
parent compares with its own reading taken just before starting the
process.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])

import hashnet.formats  # noqa: E402

if len(sys.argv) > 2:
    hashnet.formats.read_codes(sys.argv[2])
print(json.dumps({"ready": time.monotonic()}))
