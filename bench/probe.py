"""Time one cold start of endofix in this fresh interpreter: the import of
``endofix.cli`` plus one op, as every CLI invocation pays it.

    python3 bench/probe.py SRC_DIR ENDOFIX_ARG...

Prints {"setup_s": reference seconds, "wall_s": seconds, "rc": exit code}
as its last line (see calibrate.py).
"""
import sys
import time

from calibrate import SpeedSampler

sampler = SpeedSampler()
with sampler:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import contextlib
    import io

    import endofix.cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = endofix.cli.main(sys.argv[2:])
    wall_s = time.perf_counter() - start

import json  # noqa: E402

print(json.dumps({"setup_s": sampler.reference_seconds(wall_s),
                  "wall_s": wall_s, "rc": rc}))
