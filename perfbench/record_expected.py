#!/usr/bin/env python3
"""Record the protocol outputs of the default seed into ``expected/``.

    python3 perfbench/record_expected.py

Run it only at a commit whose outputs are known good: the protocol workload
fails any later run on the default seed whose selections or validation SDRs
differ from what this writes.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    protocol = workloads.WORKLOADS["protocol"]
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        manifest = protocol.generate(Path(tmp) / "inputs", workloads.DEFAULT_SEED)
        out = Path(tmp) / "out"
        protocol.call(manifest, 0, out)
        validation = workloads.read_rows(out / "validation.csv")
        doc = {
            "seed": workloads.DEFAULT_SEED,
            "selections": json.loads((out / "selections.json").read_text()),
            "validation_sdr_db": {",".join(k): v for k, v in sorted(validation.items())},
        }
    path = workloads.EXPECTED_DIR / f"protocol_seed{workloads.DEFAULT_SEED}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
