"""End-to-end tour of one bundled example.

Generates the cube-o1 artifact files into a scratch directory, loads them back
through the manifest, and runs the full check pipeline. Equivalent CLI:

    tropms example cube-o1 --outdir out/
    tropms validate --manifest out/cube-o1.manifest.json

Run with: python3 demos/quickstart.py
"""

import tempfile
from pathlib import Path

from tropms.generators import generate_example
from tropms.pipeline import (
    load_manifest,
    report_to_text,
    run_pipeline,
)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp)
        generate_example("cube-o1", str(outdir))
        print("generated artifacts:")
        for path in sorted(outdir.iterdir()):
            print(f"  {path.name}  ({path.stat().st_size} bytes)")

        manifest = load_manifest(outdir / "cube-o1.manifest.json")
        report = run_pipeline(manifest)
        print()
        print(report_to_text(report), end="")
        print()
        print(f"exit code: {report.exit_code}")


if __name__ == "__main__":
    main()
