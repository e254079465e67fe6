"""Exit code and stdout digest of every dynframe CLI call on a fixed set of systems.

Run from the repository root, once per source tree, and diff the outputs:

    python3 scripts/cli_bytes.py src > new.txt
    python3 scripts/cli_bytes.py ../other-checkout/src > old.txt
    diff old.txt new.txt

Each system goes through construct, gen, analyze, scale, scale --strict,
dual and reconstruct --simulate, one fresh `dynframe` process per call
with the given src/ directory first on the import path.  gen reads the
system that construct printed, analyze and scale read the frame gen
printed, so every tree runs its own pipeline end to end.  Each call
prints one line: system, command, exit code and the sha256 of its stdout.
The systems are the README pipeline and the preset systems whose bytes
earlier changes were checked on.  Last comes one `verify --json` call
(seed 0, every suite at its default trial count): its exit code and
digest, then one line per suite with its name, trial count and verdict.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

THIRD = "2.0943951023931953"   # 2 pi / 3

SYSTEMS = [
    ("readme", ["harmonic", "--n", "3", "--k", "7"]),
    ("companion-123", ["companion", "--coeffs", "1,2,3"]),
    ("companion-1-0.5", ["companion", "--coeffs", "1,0.5"]),
    ("companion-100", ["companion", "--coeffs", "1,0,0"]),
    ("schur-4", ["schur", "--n", "4", "--omega", "1.2", "--signs", "1,-1"]),
    ("r3", ["r3", "--a", "-2", "--b", "1"]),
    ("harmonic-4-8", ["harmonic", "--n", "4", "--k", "8"]),
    ("harmonic-24-96", ["harmonic", "--n", "24", "--k", "96"]),
    ("rotation-4", ["rotation", "--n", "4", "--omega", "1.0"]),
    ("rotation-3", ["rotation", "--n", "3", "--omega", "2.0"]),
    ("twoparam", ["twoparam", "--a", "1", "--d", "0"]),
    ("multigen-2", ["multigen", "--plane", f"0,0,1,1,{THIRD}",
                    "--plane", f"0,0,2,2,{THIRD}"]),
    ("block-2", ["block", "--omegas", "0.5,1.5"]),
    ("block-3", ["block", "--omegas", "0.3,1.1,2.0"]),
]


def run(src, argv, cwd):
    """(exit code, stdout bytes) of one dynframe process on src."""
    code = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
            "from dynframe.cli import main; sys.exit(main())")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("DYNFRAME_TOL", None)
    proc = subprocess.run([sys.executable, "-c", code, src] + argv, cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.returncode, proc.stdout


def sample_vector(n):
    """A fixed real vector of length n in the matrix file format."""
    data = [[round(1.0 / (i + 1) - 0.3 * (i % 3), 6)] for i in range(n)]
    return {"rows": n, "cols": 1, "field": "real", "data": data}


def pipeline(src, name, preset, cwd):
    def call(label, argv, keep=None):
        code, out = run(src, argv, cwd)
        print(f"{name} {label} exit={code} sha256={hashlib.sha256(out).hexdigest()}",
              flush=True)
        if keep is not None:
            with open(os.path.join(cwd, keep), "wb") as fh:
                fh.write(out)
        return code, out

    call("construct", ["construct"] + preset, keep="sys.json")
    code, out = call("gen", ["gen", "sys.json"], keep="frame.json")
    n = json.loads(out)["rows"] if code == 0 else 1
    with open(os.path.join(cwd, "f.json"), "w") as fh:
        json.dump(sample_vector(n), fh)
    call("analyze", ["analyze", "frame.json"])
    call("scale", ["scale", "frame.json"])
    call("scale--strict", ["scale", "frame.json", "--strict"])
    call("dual", ["dual", "sys.json"])
    call("reconstruct--simulate", ["reconstruct", "sys.json", "--simulate", "f.json"])


def verify_suites(src, cwd):
    code, out = run(src, ["verify", "--json", "--seed", "0"], cwd)
    print(f"verify --json exit={code} sha256={hashlib.sha256(out).hexdigest()}", flush=True)
    for suite in json.loads(out) if code in (0, 1) else []:
        print(f"verify {suite['name']} trials={suite['trials']} passed={suite['passed']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", help="the src/ directory that holds the dynframe package")
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    if not os.path.isdir(os.path.join(src, "dynframe")):
        parser.error(f"{src} holds no dynframe package")
    for name, preset in SYSTEMS:
        with tempfile.TemporaryDirectory() as cwd:
            pipeline(src, name, preset, cwd)
    with tempfile.TemporaryDirectory() as cwd:
        verify_suites(src, cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
