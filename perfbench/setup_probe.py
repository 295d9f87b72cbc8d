"""Set-up probe, run in a fresh interpreter: import fairalloc, parse configs.

Usage: python3 setup_probe.py SRC_DIR < payload.json

The payload holds the workload's presets, config documents (as JSON
text) and dispersion metric names. Prints the seconds from just before
``import fairalloc`` to the end of parsing; interpreter start-up itself is
not part of the library's set-up and is excluded.
"""

import json
import sys
import time


def main() -> int:
    src = sys.argv[1]
    payload = json.loads(sys.stdin.read())
    start = time.perf_counter()
    sys.path.insert(0, src)
    import fairalloc

    for name in payload["presets"]:
        fairalloc.load_preset(name)
    for text in payload["configs"]:
        fairalloc.parse_config(json.loads(text))
    for name in payload["metrics"]:
        fairalloc.DispersionMetric.parse(name)
    elapsed = time.perf_counter() - start
    if not fairalloc.__file__.startswith(src):
        print(f"imported fairalloc from {fairalloc.__file__}, not {src}", file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
