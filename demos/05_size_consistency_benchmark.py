"""End-to-end size-consistency benchmark on a noisy synthetic device.

Runs the full pipeline for the single-qubit representation at
N = 2, 4, 8, 16 with the selective sampling procedure (n = 8, 4, 2, 1
samples per set, k = 3 sets), then fits the weighted least-squares slope
of energy per subsystem against qubit count and converts it into the
chemical-accuracy horizon. Outputs land in ./demo-output, including the
three figure CSVs and SVG plots.

Run:  python demos/05_size_consistency_benchmark.py
"""

import csv
import json
from pathlib import Path

from sizecon import ExperimentConfig, analyze, run_experiment
from sizecon.report import reference_table

OUTPUT = Path("demo-output")


def main():
    config = ExperimentConfig(
        representation=1,
        subsystem_counts=(2, 4, 8, 16),
        output_dir=str(OUTPUT),
        shots=20_000,
        sampling_mode="selective",
        k_sets=3,
        calibration_seed=7,
        calibration_qubits=156,
        master_seed=1,
    )
    print("running benchmark (selective sampling, heterogeneous calibration)...")
    out = run_experiment(config)
    analyze(out)

    with open(out / "summary.csv", newline="") as fh:
        summary = next(csv.DictReader(fh))
    delta = float(summary["delta_kcal_per_qubit"])
    stderr = float(summary["slope_stderr_kcal_per_qubit"])
    print(f"\nsize-consistency error : {delta:+.4e} +/- {stderr:.1e} kcal/mol per qubit")
    print(f"chemical-accuracy horizon: {summary['horizon_n_qubit']} qubits "
          f"({summary['horizon_n_h2']} H2 subsystems)")

    manifest = json.loads((out / "manifest.json").read_text())
    ref = manifest["reference"]
    print(f"exact per-subsystem energies: HF {ref['e_hf_sub']:.6f}, "
          f"FCI {ref['e_fci_sub']:.6f} hartree")

    print("\nper-N spread of energy per subsystem (the heteroscedastic cone):")
    by_n = {}
    with open(out / "samples.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["n_subsystems"]), row["set_index"], row["sample_index"])
            by_n.setdefault(key, []).append(float(row["energy_kcal_mol"]))
    import numpy as np

    samples = {}
    for (n, _, _), energies in by_n.items():
        samples.setdefault(n, []).append(np.mean(energies))
    for n in sorted(samples):
        values = np.array(samples[n])
        print(f"  N={n:>2}: {len(values):>2} samples, "
              f"mean {values.mean():10.3f}, std {values.std(ddof=1):7.3f} kcal/mol")

    print("\nclassical reference (CISD loses correlation per subsystem):")
    for row in reference_table(config.bond_length, 8):
        n = int(row["n_subsystems"])
        if n in (1, 2, 4, 8):
            print(f"  N={n}: E_corr(CISD)/N = {float(row['cisd_correlation_per_h2']):+.6f}, "
                  f"double population {float(row['cisd_double_population']):.4f} "
                  f"(FCI {float(row['fci_double_population']):.4f})")

    print(f"\nall outputs in {out}/ (fig1/fig2a/fig2b/fig3 as CSV + SVG)")


if __name__ == "__main__":
    main()
