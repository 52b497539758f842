"""Regenerate the stored oracles: goldens.json and amplitude_table.json.

    python3 perfbench/make_goldens.py

Run it only at a commit whose outputs are known good. goldens.json holds the
SHA-256 of every CLI output the benchmark runs; the cli-session workload
fails any invocation whose ``--out`` bytes differ. amplitude_table.json holds
the 32 entries of ``basis_amplitude_table(cyclic_k5())`` as [re, im] pairs
in ``np.ndindex`` order; the amplitude oracles contract it instead of
rebuilding it with the code they check.
"""

import hashlib
import json
import os
import sys

import common
import run
import worker


def amplitude_table() -> list[list[float]]:
    sys.path.insert(0, common.SRC)
    from qtetra.amplitude import basis_amplitude_table, cyclic_k5

    return [[v.real, v.imag] for v in basis_amplitude_table(cyclic_k5()).reshape(-1).tolist()]


def main() -> int:
    os.makedirs(run.TMP, exist_ok=True)
    out_path = os.path.join(run.TMP, "golden.out")
    goldens = {}
    for argv in common.all_cli_argvs():
        code, _, _ = run.run_child([sys.executable, "-m", "qtetra.cli", *argv, "--out", out_path])
        if code != 0:
            print(f"error: {' '.join(argv)} exited with {code}", file=sys.stderr)
            return 1
        with open(out_path, "rb") as handle:
            goldens[common.golden_key(argv)] = hashlib.sha256(handle.read()).hexdigest()
        os.remove(out_path)
    with open(run.GOLDENS, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(goldens)} goldens to {run.GOLDENS}")
    table = amplitude_table()
    with open(worker.AMPLITUDE_TABLE, "w", encoding="utf-8") as handle:
        handle.write("[\n" + ",\n".join(json.dumps(entry) for entry in table) + "\n]\n")
    print(f"wrote {len(table)} amplitudes to {worker.AMPLITUDE_TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
