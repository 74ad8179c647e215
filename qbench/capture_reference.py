"""Write qbench/reference.json: digests of the CLI outputs on the shipped configs.

The ``cli_batch`` workload requires the stdout of ``budget``, ``omega-min``
and ``zones --threshold tenth``, and the ``sweep`` CSV, to be byte-identical
to these digests.  Regenerate only when an output change is intended:

    PYTHONPATH=src python3 qbench/capture_reference.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from workloads import FULL, REFERENCE, SHIPPED, TINY, cli_commands, digest, reference_key, run_cli_subprocess


def main() -> None:
    reference = {}
    results = Path(__file__).resolve().parent / "results"
    results.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=results) as tmp:
        out = Path(tmp) / "sweep.csv"
        for sizes in (FULL, TINY):
            for name, path in SHIPPED.items():
                for command, args in cli_commands(sizes).items():
                    if command == "mc":
                        continue
                    code, stdout = run_cli_subprocess([a.format(out=out) for a in args] + ["--config", str(path)])
                    if code != 0:
                        raise SystemExit(f"{name} {command} exited with {code}")
                    data = out.read_bytes() if command == "sweep" else stdout
                    reference[reference_key(name, command, sizes)] = digest(data)
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
