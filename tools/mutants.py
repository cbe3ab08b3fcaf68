"""Mutation survey: does tier-1 fail when src/lbvt/ is changed in one place?

Usage, from anywhere:

    python3 tools/mutants.py [mutant name ...]

Each mutant in MUTANTS replaces one text, which must occur exactly once in
its file, by another. For each mutant (all of them, or those named) the
tree is copied to a temporary directory, the mutant applied to the copy, and
tier-1 run there with `-x`. A mutant is killed when tier-1 fails, and the
first failing test is printed next to it; it survived when tier-1 passes.
A mutant with a reason is listed as equivalent: it is not expected to change
any answer that tier-1 can see, and the reason says why. The repository
itself is never written to. A survey means something only when tier-1
passes on the unmutated tree.

Standard library only (tier-1 itself needs pytest). The exit code is 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600  # a mutant that stalls the suite counts as killed

# name -> (file under src/lbvt/, old text, new text, reason it is equivalent or "")
MUTANTS = {
    "ladder-4-rungs": ("equilibrium.py", "_CONTINUATION_RUNGS = 8", "_CONTINUATION_RUNGS = 4", ""),
    "dl4-1e-5": ("equilibrium.py", "_DL4 = 1e-8", "_DL4 = 1e-5", ""),
    "scan-tie": ("equilibrium.py", "else k * (a0 + lim) - a\n        if e > worst:",
                 "else k * (a0 + lim) - a\n        if e >= worst:", ""),
    "residual-tol-1e-7": ("equilibrium.py", "RESIDUAL_TOL = 1e-9", "RESIDUAL_TOL = 1e-7", ""),
    "trigger-tol-0.5": ("analysis.py", "TRIGGER_TOL = 0.05", "TRIGGER_TOL = 0.5", ""),
    "warm-start-last": ("equilibrium.py", "attempts.insert(0, (_warm_start(load, start), 1))",
                        "attempts.append((_warm_start(load, start), 1))", ""),
    "carry-ignores-theta": ("equilibrium.py", "if theta != self.theta:", "if False:", ""),
    "carry-ignores-config": ("equilibrium.py",
                             "if origin is not None and origin[0] is load.config:",
                             "if origin is not None:", ""),
    "sweep-carries-unconverged": ("analysis.py", "        except GeometryError:\n"
                                  "            res = None\n",
                                  "        except GeometryError:\n            res = None\n"
                                  "        else:\n            start = res.chain\n", ""),
    "sweep-values-before-check": ("analysis.py", "        if res is not None and res.converged:",
                                  "        _ = res is not None and values(x, res)\n"
                                  "        if res is not None and res.converged:", ""),
    "ladder-snap-0.4": ("analysis.py", "< 0.5 * step:", "< 0.4 * step:", ""),
    "singularity-1e-7": ("linkage.py", "SINGULARITY_SIN = 1e-8", "SINGULARITY_SIN = 1e-7", ""),
    "deflection-slack-1e-6": ("chain.py", "dk <= lim + 1e-12", "dk <= lim + 1e-6", ""),
    "theta-slack-1e-6": ("model.py", "theta_min - 1e-9 <= theta <= config.theta_max + 1e-9",
                         "theta_min - 1e-6 <= theta <= config.theta_max + 1e-6", ""),
    "max-inner-10": ("equilibrium.py", "MAX_INNER = 50", "MAX_INNER = 10", ""),
    "rung-tol-1e-2": ("equilibrium.py", "_RUNG_TOL = 1e-3", "_RUNG_TOL = 1e-2", ""),
    "bisect-tie": ("analysis.py", "if v < target:", "if v <= target:",
                   "v == target is within tol, so the bisection returns before the tie is read"),
    "trigger-cutoff-1e-6": ("equilibrium.py", "if a > 1e-12]", "if a > 1e-6]",
                            "it matters only when the largest closed-chain torque per "
                            "newton lies in (1e-12, 1e-6] Nm"),
    "singular-step-sign": ("equilibrium.py", "step = [x / k for x in r]",
                           "step = [-x / k for x in r]", ""),
    "singular-sign-1-joint": ("equilibrium.py", "if a != 0.0 else r / k)",
                              "if a != 0.0 else -r / k)", ""),
    "one-free-step-without-k": ("equilibrium.py", "a = load.slope(point, free[0]) - k",
                                "a = load.slope(point, free[0])", ""),
    "singular-sign-one-free": ("equilibrium.py", "if a != 0.0 else r[0] / k]",
                               "if a != 0.0 else -r[0] / k]", ""),
    "pair-c-min": ("equilibrium.py", "gi * cj + scale * (cj + jx * iy - jy * ix)",
                   "gi * cj + scale * (ci + jx * iy - jy * ix)", ""),
    "two-joint-det-sign": ("equilibrium.py", "det = a * e - b * c", "det = a * e + b * c", ""),
    "singular-sign-two-joints": ("equilibrium.py", "step = [r0 / k, r1 / k]",
                                 "step = [-r0 / k, -r1 / k]", ""),
    "active-appended": ("equilibrium.py", "insort(active, i)", "active.append(i)", ""),
    "flip-keeps-joint": ("equilibrium.py", "active.remove(i)", "pass", ""),
    "regime-at-limit": ("chain.py", "if dk >= lim else", "if dk > lim else", ""),
    "closure-slack-1e-9": ("linkage.py", "l2 + l3 + 1e-12,", "l2 + l3 + 1e-9,", ""),
    "closure-term-sum": ("linkage.py", "l2 * l2 - l3 * l3,", "l2 * l2 + l3 * l3,", ""),
    "anchor-cos-sin-swapped": ("chain.py", "(config.l_offset * cos(config.beta), "
                               "config.l_offset * sin(config.beta))",
                               "(config.l_offset * sin(config.beta), "
                               "config.l_offset * cos(config.beta))", ""),
    "slope-without-ds": ("equilibrium.py", "return ds * (wx * tx + wy * ty) * c + scale *",
                         "return scale *", ""),
    "verdict-not-copied": ("model.py", "return list(config._violations)",
                           'return vars(config).setdefault("_list", list(config._violations))',
                           ""),
    "validation-stages-ungated": ("model.py", "        if not violations:  # a malformed or "
                                  "non-finite number would break or fail the checks\n"
                                  "            violations = _field_violations(self)\n",
                                  "        violations += _field_violations(self)\n", ""),
    "read-result-dropped": ("model.py", "            if value is not raw:\n"
                            "                object.__setattr__(self, name, value)\n", "", ""),
    "preload-cap": ("model.py", "if config.alpha_preload > 2.0 * math.pi:",
                    "if config.alpha_preload > 4.0 * math.pi:", ""),
    "calibrate-cap": ("analysis.py", "turn = 2.0 * math.pi", "turn = 4.0 * math.pi", ""),
    "writer-nan-as-nan": ("config.py", "elif type(value) is float and math.isfinite(value) or",
                          "elif type(value) is float or", ""),
    "writer-tuple-nan-as-nan": ("config.py", "        if all(map(math.isfinite, value)):",
                                "        if True:", ""),
    "save-config-ungated": ("config.py", "    _require_valid(config)\n    doc: dict", "    doc: dict",
                            ""),
    "angle-refusal-raised": ("config.py", "            except ConfigError:  # the build refuses it",
                             "            except ZeroDivisionError:  # the build refuses it", ""),
    "provenance-not-reindented": ("config.py", "{_json_text(provenance)}",
                                  "{json.dumps(provenance, indent=2)}", ""),
    "list-fast-path-admits-bool": ("model.py", "if all(type(v) is float for v in raw):",
                                   "if all(type(v) in (float, bool) for v in raw):", ""),
    "number-fast-path-admits-int": ("model.py", "if type(raw) is float:",
                                    "if type(raw) in (float, int):", ""),
    "utf8-error-unnamed": ("config.py", 'raise ConfigError(f"{path}: not UTF-8 text: {exc}")',
                           'raise ConfigError(f"not UTF-8 text: {exc}")', ""),
    "ignored-keys": ("config.py", '_IGNORED_KEYS = {"provenance", "spring_arm_length"}',
                     '_IGNORED_KEYS = {"provenance"}', ""),
    "csv-8-digits": ("analysis.py", 'format(float(v), ".9g")', 'format(float(v), ".8g")', ""),
    "csv-abscissae-9-digits": ("analysis.py", "while digits < 17 and", "while digits < 9 and", ""),
    "subnormal-tick-step": ("analysis.py", "10.0 * mag) or span", "10.0 * mag)", ""),
    "sweep-exit-code": ("cli.py", "return 1 if failed else 0", "return 0", ""),
    "trigger-value-unjoined": ("cli.py", '"--step", "--trigger",', '"--step",', ""),
    "default-is-base": ("__init__.py", "load_config(default_config_path())",
                        "load_config(base_config_path())", ""),
    "main-not-called": ("__main__.py", "\nmain()\n", "\nmain\n", ""),
    "open-slot-holds-closed": ("model.py", 'object.__setattr__(self, "_open_lever", open_lever)',
                               'object.__setattr__(self, "_open_lever", closed_lever)', ""),
    "closed-slot-unguarded": ("model.py", "if not violations:  # finite numbers",
                              "if True:  # finite numbers", ""),
    "total-stiffness-ungated": ("model.py", "return 1.0 / (_require_valid(config).n_joints",
                                "return 1.0 / (config.n_joints", ""),
    "deflection-float-read": ("chain.py",
                              'd = _read_argument(tuple(deflection), "deflection", '
                              '_require_number_list)',
                              "d = tuple(float(x) for x in deflection)", ""),
    "gate-off": ("model.py", "if config._violations:", "if False:", ""),
    "gate-skipped-solve": ("equilibrium.py", "    _require_valid(config)\n    # a NaN force",
                           "    # a NaN force", ""),
    "nan-trial-evaluated": ("equilibrium.py", "elif x != x:", "elif False:", ""),
    "nan-trial-evaluated-1-joint": ("equilibrium.py", "if x == d[j] or x != x:",
                                    "if x == d[j]:", ""),
    "hold-nothing": ("equilibrium.py", "if _pushed(ri, d[i], limits[i]) is None:", "if True:",
                     ""),
    "hold-only-at-stop": ("equilibrium.py", "if _pushed(ri, d[i], limits[i]) is None:",
                          "if _pushed(ri, d[i], limits[i]) is not Regime.END_STOP:", ""),
    "hold-only-at-0": ("equilibrium.py", "if _pushed(ri, d[i], limits[i]) is None:",
                       "if _pushed(ri, d[i], limits[i]) is not Regime.CLOSED:", ""),
    "hold-nothing-1-joint": ("equilibrium.py",
                             "norm = abs(r) if _pushed(r, d[j], lim) is None else 0.0",
                             "norm = abs(r)", ""),
    "hold-no-trial-1-joint": ("equilibrium.py",
                              "norm_trial = abs(r_trial) if _pushed(r_trial, x, lim) is None "
                              "else 0.0", "norm_trial = abs(r_trial)", ""),
    "travel-trial-unchecked": ("analysis.py", 'l4 = _read_finite(math.hypot(*tip), "l4")',
                               "l4 = math.hypot(*tip)",
                               "a validated config's trial lever is finite unless the chain's "
                               "float sum overflows, which needs lengths near 1e308"),
    "force-argument-unread": ("model.py", '    f_cyl = _read_argument(f_cyl, "f_cyl")\n',
                              "", ""),
    "theta-check-ungated": ("model.py",
                            '    _require_valid(config)\n    theta = _read_finite(theta, "theta")',
                            '    theta = _read_finite(theta, "theta")', ""),
    "deflection-check-ungated": ("chain.py", "    _require_valid(config)\n    d = _read_argument(",
                                 "    d = _read_argument(", ""),
    "trigger-reads-before-gate": ("equilibrium.py",
                                  "    a_max = _trigger_torque(config, theta)  # gates config "
                                  "before its fields are read\n    return per_joint_stiffness("
                                  "config) * config.alpha_preload / a_max",
                                  "    return per_joint_stiffness(config) * config.alpha_preload"
                                  " / _trigger_torque(config, theta)", ""),
    "partly-open-always-checked": ("linkage.py", 'label != "partly open" or not failed', "True",
                                   ""),
    "extreme-angle-interior-ignored": ("linkage.py", "if inner <= config.theta_max:", "if False:",
                                       ""),
    "ladder-argument-unread": ("analysis.py", "    start, stop, step = map(_read_argument, "
                               '(start, stop, step), ("start", "stop", "step"))\n', "", ""),
}


def first_failure(output: str) -> str:
    """The test id of pytest's first FAILED or ERROR summary line, or its last line."""
    lines = output.splitlines()
    line = next((l for l in lines if l.startswith(("FAILED ", "ERROR "))),
                lines[-1] if lines else "")
    return line.split(" - ")[0]


def run(name: str, tmp: Path) -> tuple[bool, str]:
    """Apply one mutant to a fresh copy of the tree; (killed, first failure)."""
    filename, old, new, _ = MUTANTS[name]
    tree = tmp / name
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchwork", ".benchmarks"))
    path = tree / "src" / "lbvt" / filename
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"mutant {name}: {old!r} occurs {text.count(old)} times in {filename}")
    path.write_text(text.replace(old, new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               HYPOTHESIS_STORAGE_DIRECTORY=str(tmp / f"{name}.hypothesis"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider"],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True, f"timeout after {TIMEOUT_S} s"
    finally:
        shutil.rmtree(tree)
    return proc.returncode != 0, first_failure(proc.stdout) if proc.returncode else ""


def main(argv: list[str]) -> int:
    names = argv or list(MUTANTS)
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(unknown)}")
    started = time.perf_counter()
    killed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            dead, failure = run(name, Path(tmp))
            killed += dead
            reason = MUTANTS[name][3]
            status = "killed" if dead else "equivalent" if reason else "survived"
            print(f"{status:<10} {name:<28} {failure or reason}", flush=True)
    print(f"mutants: {killed} of {len(names)} killed in {time.perf_counter() - started:.0f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
