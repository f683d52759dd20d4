"""One JSON digest of what the isoflow CLI prints and writes, for byte-for-byte comparisons.

    python3 tools/output_digest.py --out digest.json [--src path/to/src] [--seeds 0,1]
    python3 tools/output_digest.py --diff old.json new.json

The digest holds the exit code, stdout and stderr of

* every ``isoflow collapse`` op of the perfbench collapse-sweep seeds,
* ``isoflow verify`` on the built-in grid,
* every ``isoflow --help`` text,
* a fixed set of ``isoflow evolve`` windows,
* ``isoflow collapse --surface-json`` on one document per ambient, each
  listing its blocks out of order,

and, for every export-cloud op of the seeds, for a fixed set of exports
whose charts are wider than any of those clouds', for two exports whose values
are written in exponent notation, large and small, and for ``evolve`` (CSV and
JSON) and ``collapse`` with ``--output``, its exit code, output and the
sha256 of each file it writes.  Each of those files is first filled with
``JUNK``, longer than any of them, so the digest covers writing over an
existing file: a byte of junk left after the output changes its hash.  The
seeded ops come from ``perfbench/workloads.py``, which is only read.  Each
op runs in process through ``isoflow.cli.main``.
A change meant to keep every output byte runs the tool on the parent
checkout (``--src``) and on the change and compares the two files with
``--diff``: it prints each op whose outcome differs, with each differing
line (``-`` old, ``+`` new), and exits 0 only when the digests are identical.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, argv) of the evolve windows: every engine and format, backward and
# clipped windows, and the families with and without a collapse.
EVOLVE = [
    ("euclidean-both-csv", ["--family", "euclidean-cylinder", "--m", "2", "--n", "3",
                            "--kappa", "-1.5", "--t-start", "-0.2", "--t-end", "0.3",
                            "--samples", "11"]),
    ("horosphere-ode-json", ["--family", "horosphere", "--n", "3", "--kappa", "1",
                             "--t-end", "2", "--samples", "5", "--engine", "ode",
                             "--format", "json"]),
    ("hyperbolic-umbilic-eternal", ["--family", "hyperbolic-umbilic", "--n", "2",
                                    "--kappa", "0.5", "--t-start", "-0.5", "--t-end", "5",
                                    "--samples", "12"]),
    ("hyperbolic-cylinder-closed", ["--family", "hyperbolic-cylinder", "--m1", "2",
                                    "--m2", "1", "--kappa1", "1.5", "--t-end", "1",
                                    "--samples", "9", "--engine", "closed"]),
    ("sphere-g4-flipped-json", ["--family", "sphere-g4", "--kappa1", "2", "--mults", "1,2,1,2",
                                "--t-start", "-0.1", "--t-end", "0.2", "--samples", "7",
                                "--format", "json"]),
    ("sphere-product-tol", ["--family", "sphere-product", "--l", "2", "--n", "5",
                            "--kappa1", "2", "--t-end", "0.05", "--samples", "6",
                            "--rel-tol", "1e-8", "--abs-tol", "1e-10"]),
    # Windows whose last time has an ulp above 2e-15, short of t* or eternal,
    # and an eternal one far past the step where the DOP853 error norm underflows.
    ("euclidean-late-end", ["--family", "euclidean-cylinder", "--m", "1", "--n", "2",
                            "--kappa", "0.1", "--t-end", "20", "--samples", "3"]),
    ("hyperbolic-umbilic-late-end", ["--family", "hyperbolic-umbilic", "--n", "2",
                                     "--kappa", "0.5", "--t-end", "16", "--samples", "3"]),
    ("horosphere-huge-end", ["--family", "horosphere", "--n", "3", "--kappa", "1",
                             "--t-end", "1e300", "--samples", "3"]),
    # A window past t* that keeps no sample, so its CSV is the header alone, and one
    # of 37 x 7 = 259 cells in fixed notation, just above the 256 below which the
    # CSV text pass leaves a chunk to %: the other windows' CSVs take that path.
    ("sphere-umbilic-all-clipped", ["--family", "sphere-umbilic", "--n", "2", "--kappa", "1",
                                    "--t-start", "5", "--t-end", "6", "--samples", "3"]),
    ("sphere-product-259-cells", ["--family", "sphere-product", "--l", "2", "--n", "5",
                                  "--kappa1", "2", "--t-start", "0.001", "--t-end", "0.05",
                                  "--samples", "37", "--engine", "closed"]),
]

# (name, argv) of the fixed exports, run at resolution 2 and extent 0.9: charts
# of 8 axes and more, past any export-cloud op, where np.sum adds a row in 8
# partial sums; at extent 0.9 the order in which |u|^2 is summed shows.
EXPORT = [
    ("horosphere-9", ["--family", "horosphere", "--n", "9", "--kappa", "1", "--times", "0.5"]),
    ("hyperbolic-cylinder-2-9", ["--family", "hyperbolic-cylinder", "--m1", "2", "--m2", "9",
                                 "--kappa1", "1.5", "--times", "0.01"]),
    ("euclidean-cylinder-10-12", ["--family", "euclidean-cylinder", "--m", "10", "--n", "12",
                                  "--kappa", "-1.3", "--times", "0.01"]),
    ("sphere-product-4-9", ["--family", "sphere-product", "--l", "4", "--n", "9",
                            "--kappa1", "2", "--times", "0.01"]),
]

# (name, argv) of the exports whose values reach exponent notation, past either end
# of the fixed notation %.17g keeps for 1e-4 <= |x| < 1e17: coordinates near
# 3.7e+39, and radii near 9.8e-21.
NOTATION = [
    ("horosphere-extent-1e20", ["--family", "horosphere", "--n", "2", "--kappa", "1",
                                "--times", "0.5", "--resolution", "3", "--extent", "1e20"]),
    ("euclidean-cylinder-kappa-1e20", ["--family", "euclidean-cylinder", "--m", "2",
                                       "--n", "3", "--kappa", "1e20", "--times", "0",
                                       "--resolution", "3"]),
]

# (name, argv) of the --output ops, each writing <out>/<name>.
OUTPUT = [
    ("evolve.csv", ["evolve", *dict(EVOLVE)["euclidean-both-csv"]]),
    ("evolve.json", ["evolve", *dict(EVOLVE)["sphere-g4-flipped-json"]]),
    ("collapse.json", ["collapse", "--family", "sphere-g4", "--kappa1", "2",
                       "--mults", "1,2,1,2"]),
]

HELP = [[], ["evolve"], ["collapse"], ["verify"], ["export"]]

# What each export target holds before its op: 4 MiB, above the 3.4 MB of the
# largest export-cloud CSV.
JUNK = b"junk\n" * (2**22 // 5)

# (name, document) of the --surface-json ops: valid surfaces whose blocks are
# not in the order the catalog sorts them into.
SURFACE_JSON = [
    ("euclidean-cylinder", {"space_form": 0, "family": "euclidean_cylinder",
                            "blocks": [{"kappa": 0.0, "mult": 1}, {"kappa": 1.5, "mult": 2}]}),
    ("sphere-g4", {"space_form": 1, "family": "sphere_g4",
                   "blocks": [{"kappa": -3.0, "mult": 2}, {"kappa": 1 / 3, "mult": 2},
                              {"kappa": 2.0, "mult": 1}, {"kappa": -0.5, "mult": 1}]}),
    ("hyperbolic-cylinder", {"space_form": -1, "family": "hyperbolic_cylinder",
                             "blocks": [{"kappa": 0.5, "mult": 2}, {"kappa": 2.0, "mult": 1}]}),
]


def run_cli(cli, argv):
    """[exit code, stdout, stderr] of one in-process call; an uncaught exception is its outcome."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # --help and argparse errors
            rc = exc.code
        except Exception as exc:
            rc = f"uncaught {type(exc).__name__}: {exc}"
    return [rc, out.getvalue(), err.getvalue()]


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_writing(cli, argv, names):
    """[exit code, stdout, stderr, {file: sha256}] of one op that writes into a new
    directory, ``<out>`` in its argv, where each of ``names`` first holds ``JUNK``."""
    with tempfile.TemporaryDirectory() as out_dir:
        for name in names:
            with open(os.path.join(out_dir, name), "wb") as fh:
                fh.write(JUNK)
        rc, stdout, stderr = run_cli(cli, [arg.replace("<out>", out_dir) for arg in argv])
        files = {name: _sha256(os.path.join(out_dir, name))
                 for name in sorted(os.listdir(out_dir))}
        return [rc, stdout.replace(out_dir, "<out>"), stderr, files]


def run_export(cli, argv, stem):
    """run_writing of one single-time export, over its two files."""
    return run_writing(cli, ["export"] + argv + ["--output-dir", "<out>", "--stem", stem],
                       [f"{stem}_000.csv", f"{stem}_000.json"])


def digest(src, seeds=(0, 1),
           sections=("collapse", "verify", "export", "export-wide", "export-notation",
                     "output", "help", "evolve", "surface-json"),
           limit=None):
    """The digest as a dict; ``limit`` keeps the first ops of each seeded section."""
    sys.path.insert(0, src)
    sys.path.insert(1, ROOT)
    import isoflow.cli as cli
    from perfbench import workloads

    doc = {}
    if "collapse" in sections:
        doc["collapse"] = {
            str(seed): {op: run_cli(cli, ["collapse"] + workloads.argv(spec))
                        for op, spec in workloads.collapse_sweep(seed)[:limit]}
            for seed in seeds}
    if "verify" in sections:
        doc["verify"] = run_cli(cli, ["verify"])
    if "export" in sections:
        doc["export"] = {
            str(seed): {f"{op}/{i}": run_export(cli, workloads.argv(spec) + [
                "--times", repr(t), "--resolution", ",".join(map(str, res))], f"op{i:02d}")
                for i, (op, spec, t, res, _) in enumerate(workloads.export_clouds(seed)[:limit])}
            for seed in seeds}
    if "export-wide" in sections:
        doc["export-wide"] = {
            name: run_export(cli, argv + ["--resolution", "2", "--extent", "0.9"], name)
            for name, argv in EXPORT}
    if "export-notation" in sections:
        doc["export-notation"] = {name: run_export(cli, argv, name) for name, argv in NOTATION}
    if "output" in sections:
        doc["output"] = {name: run_writing(cli, argv + ["--output", f"<out>/{name}"], [name])
                         for name, argv in OUTPUT}
    if "help" in sections:
        doc["help"] = {" ".join(argv) or "isoflow": run_cli(cli, argv + ["--help"])
                       for argv in HELP}
    if "evolve" in sections:
        doc["evolve"] = {name: run_cli(cli, ["evolve"] + argv) for name, argv in EVOLVE}
    if "surface-json" in sections:
        doc["surface-json"] = {}
        with tempfile.TemporaryDirectory() as tmp:
            for name, surface in SURFACE_JSON:
                path = os.path.join(tmp, f"{name}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(surface, fh)
                doc["surface-json"][name] = run_cli(cli, ["collapse", "--surface-json", path])
    return doc


FIELDS = ("rc", "stdout", "stderr", "files")


def diff(old, new, path=""):
    """The lines naming each op of two digests that differs, each followed by its
    differing fields: the -/+ lines of an output, or the old and new value."""
    if isinstance(old, dict) and isinstance(new, dict):
        lines = []
        for key in sorted(old.keys() | new.keys()):
            where = f"{path}/{key}" if path else key
            if key in old and key in new:
                lines += diff(old[key], new[key], where)
            else:
                lines.append(f"{where}: only in the {'old' if key in old else 'new'} digest")
        return lines
    if old == new:
        return []
    if not (isinstance(old, list) and isinstance(new, list) and len(old) == len(new)):
        return [path, f"  - {old!r}", f"  + {new!r}"]
    lines = [path]
    for field, was, now in zip(FIELDS, old, new):
        if was == now:
            continue
        lines.append(f"  {field}")
        if isinstance(was, str) and isinstance(now, str):
            lines += [f"    {line}" for line in difflib.ndiff(was.splitlines(), now.splitlines())
                      if line[:2] in ("- ", "+ ")]
        else:
            lines += [f"    - {was!r}", f"    + {now!r}"]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="the JSON file to write")
    mode.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                      help="compare two digests; exit 0 only if they are identical")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the src directory whose isoflow runs (default this checkout's)")
    parser.add_argument("--seeds", default="0,1", help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    if args.diff:
        docs = []
        for name in args.diff:
            with open(name, encoding="utf-8") as fh:
                docs.append(json.load(fh))
        lines = diff(*docs)
        print("\n".join(lines) if lines else "the digests are identical")
        return 1 if lines else 0
    seeds = [int(s) for s in args.seeds.split(",")]
    doc = digest(os.path.abspath(args.src), seeds)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
