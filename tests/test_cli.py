import hashlib
import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import cphi.verify
from cphi import cli
from cphi.cli import main
from cphi.gauss_sums import gauss_sum_by_reduction, gauss_sum_numeric
from oracles import monomial, scaled_partition_term_fraction

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_cphi_level1(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--series", "cphi", "--N", "1", "--nmax", "10"
    )
    assert code == 0
    values = [line.split(": ")[1] for line in out.strip().split("\n")]
    assert values == ["1", "1", "2", "3", "5", "7", "11", "15", "22", "30", "42"]


def test_expand_json_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "expand", "--series", "theta", "--N", "5", "--nmax", "4",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"valuation", "trunc", "coeffs"}
    assert payload["trunc"] == 4
    assert payload["coeffs"][1] == ["20", "1"]


def test_expand_eta_requires_d(capsys):
    code, _, err = run_cli(capsys, "expand", "--series", "eta", "--N", "5")
    assert code == 2
    assert "--d" in err


def test_expand_vr(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--series", "vr", "--r", "2", "--nmax", "4",
        "--format", "csv",
    )
    assert code == 0
    assert out.strip().split("\n") == [
        "n,coefficient", "0,1", "1,2", "2,5", "3,10", "4,20"
    ]


def test_expand_partition_series(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--series", "partition", "--N", "5", "--nmax", "3",
        "--format", "csv",
    )
    assert code == 0
    # the main identity's partition side for N=5: cphi itself (zero residual)
    assert out.strip().split("\n")[1:] == ["0,1", "1,25", "2,150", "3,675"]


def test_expand_partition_series_per_divisor(capsys):
    # --d prints one scaled term of the partition side; the terms over d | N sum to it
    def values(*extra):
        code, out, err = run_cli(capsys, "expand", "--series", "partition", "--N", "35",
                                 "--nmax", "40", "--format", "csv", *extra)
        assert (code, err) == (0, "")
        return [int(line.split(",")[1]) for line in out.splitlines()[1:]]

    total = [0] * 41
    for d in (1, 5, 7, 35):
        side = values("--d", str(d))
        assert side == [scaled_partition_term_fraction(35, d, n) for n in range(41)], d
        total = [t + v for t, v in zip(total, side)]
    assert total == values()


def test_invalid_level_messages(capsys):
    code, _, err = run_cli(capsys, "verify", "--N", "15", "--nmax", "10")
    assert code == 2
    assert "coprime to 6" in err
    code, _, err = run_cli(capsys, "verify", "--N", "25", "--nmax", "10")
    assert code == 2
    assert "squarefree" in err
    code, _, err = run_cli(capsys, "verify", "--N", "5", "--nmax", "0")
    assert code == 2
    assert "nMax >= 1" in err


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--N", "5", "--nmax", "60", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert all(entry["pass"] for entry in payload["checks"])


def test_verify_n13_reports_b1(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--N", "13", "--nmax", "30", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["b"][1] == "26"


def test_gauss_agreement(capsys):
    code, out, _ = run_cli(
        capsys, "gauss", "--dim", "4", "--a", "1", "--c", "5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["level-closed-form"] == "-25*sqrt(5)"


def test_gauss_text_prints_oracle_as_two_reprs(capsys):
    code, out, _ = run_cli(capsys, "gauss", "--dim", "4", "--a", "1", "--c", "5")
    assert code == 0
    oracle = gauss_sum_numeric(4, 1, 5)
    assert f"oracle: {oracle.real!r} {oracle.imag!r}" in out.splitlines()
    code, out, _ = run_cli(capsys, "gauss", "--dim", "12", "--a", "1", "--c", "13")
    assert code == 0
    assert "oracle: None" in out.splitlines()


def test_gauss_guard_falls_back_to_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "gauss", "--dim", "12", "--a", "1", "--c", "13", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"] is None
    assert "level-closed-form" in payload


def test_gauss_rejects_noncoprime(capsys):
    code, _, err = run_cli(capsys, "gauss", "--dim", "2", "--a", "5", "--c", "10")
    assert code == 2
    assert "gcd" in err


GAUSS_BOUND_ERROR = "error: gauss needs (dim+1)*c <= 2000000 and (dim+1)*digits(c) <= 8000"


@pytest.mark.parametrize(
    "dim,c", [(20000, 3), (8000, 3), (3000000, 3), (8000, 1), (200, 9973), (0, 2000001)]
)
def test_gauss_refuses_inputs_over_its_bound(capsys, dim, c):
    # over the bound gauss fails before any work; --dim 20000 --c 3 would
    # otherwise reach a value of more than Python's 4300 printable digits
    code, out, err = run_cli(capsys, "gauss", "--dim", str(dim), "--a", "1", "--c", str(c))
    assert code == 2
    assert out == ""
    assert err == f"{GAUSS_BOUND_ERROR}, got dim={dim}, c={c}\n"


def test_gauss_prints_values_within_its_bound_in_full(capsys):
    # (7999 + 1) * 1 digit is on the bound; the reduction value has 3390 characters
    code, out, _ = run_cli(capsys, "gauss", "--dim", "7999", "--a", "1", "--c", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["reduction"] == str(gauss_sum_by_reduction(7999, 1, 7))
    assert len(payload["reduction"]) > 3000


def test_bernoulli(capsys):
    code, out, _ = run_cli(capsys, "bernoulli", "--k", "2", "--N", "5")
    assert code == 0
    assert out.strip() == "4/5"


def test_ratios(capsys):
    code, out, _ = run_cli(
        capsys, "ratios", "--N", "13", "--nmax", "5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,ratio"
    assert lines[1] == "1,1.181818181818"


def test_table_b1(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "b1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [(r["N"], r["b1"]) for r in rows] == [
        (13, "26"), (17, "170"), (19, "266"), (23, "506")
    ]
    assert all(r["match"] for r in rows)


def test_table_kolitsch(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--which", "kolitsch", "--nmax", "60", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["N"] for r in rows] == [5, 7, 11]
    assert all(r["residual_zero"] for r in rows)


CUSP_BOUND_ERROR = "error: table cusp-constants needs ((N+1)//2)*digits(N) <= 4000"


@pytest.mark.parametrize("level", ["10007", "2003", "1000003000009"])
def test_table_cusp_constants_refuses_levels_over_its_bound(level):
    # refused before any power of d/N is taken: --N 10007 used to fail on
    # Python's own 4300-digit limit, and --N 1000003000009 ran for minutes
    proc = run_python("-m", "cphi.cli", "table", "--which", "cusp-constants", "--N", level, timeout=5)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"{CUSP_BOUND_ERROR}, got N={level}\n"


def test_table_cusp_constants_prints_levels_within_its_bound_in_full(capsys):
    # 1000 * 4 digits is on the bound; the d = 1 eta constant has 3316 characters
    code, out, err = run_cli(capsys, "table", "--which", "cusp-constants", "--N", "1999", "--format", "json")
    assert (code, err) == (0, "")
    rows = json.loads(out)
    assert [row["d"] for row in rows] == [1, 1999]
    assert max(len(value) for row in rows for value in (row["theta"], row["eta"])) == 3316


@pytest.mark.parametrize("level,message", [("10005", "N=10005: must be coprime to 6"),
                                           ("10201", "N=10201: must be squarefree")])
def test_table_cusp_constants_validates_the_level_before_its_bound(capsys, level, message):
    code, out, err = run_cli(capsys, "table", "--which", "cusp-constants", "--N", level)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_table_cusp_constants(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--which", "cusp-constants", "--N", "5", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert rows == [
        {"d": 1, "theta": "-1/5*sqrt(5)", "eta": "-1/125*sqrt(5)"},
        {"d": 5, "theta": "1", "eta": "1"},
    ]


def test_threads_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("QSERIES_THREADS", "abc")
    code, _, err = run_cli(capsys, "bernoulli", "--k", "0", "--N", "1")
    assert code == 2
    assert "QSERIES_THREADS" in err
    monkeypatch.setenv("QSERIES_THREADS", "4")
    code, out, _ = run_cli(capsys, "bernoulli", "--k", "0", "--N", "1")
    assert code == 0


def test_byte_identical_output(capsys):
    first = run_cli(capsys, "verify", "--N", "7", "--nmax", "40", "--format", "json")
    second = run_cli(capsys, "verify", "--N", "7", "--nmax", "40", "--format", "json")
    assert first == second
    third = run_cli(capsys, "ratios", "--N", "13", "--nmax", "20", "--format", "csv")
    fourth = run_cli(capsys, "ratios", "--N", "13", "--nmax", "20", "--format", "csv")
    assert third == fourth


# sha256 of stdout and the exit code of each example in README's "CLI"
# section: the output contract is byte-identical stdout, so a refactor must
# reproduce these exactly
README_EXAMPLES = [
    ("verify --N 5 --nmax 200", 0, "98dcaa7f2f0d83da8d40d310e3938829a4996c29be2341a301ba748c87ecbd53"),
    ("verify --N 13 --nmax 200 --format json", 0, "f90736fe66123a2a88158067f08c8ce41304457fa6ef48400b072ced83a95091"),
    ("expand --series cphi --N 1 --nmax 10", 0, "bef657488167ea0cbbab03656621e4231e44e53e12cd8fca9ea783752c36aecd"),
    ("expand --series eta --N 5 --d 1 --nmax 20", 0, "8dd8de422dbfdadd419902888d0629e470dfd4990123ec412a207dd4741ce185"),
    ("expand --series vr --r 13 --nmax 40", 0, "7cad7159e10bfc32895e2a60c4c1990a455173709e3a6170347d8e706bb1baf9"),
    ("gauss --dim 4 --a 1 --c 5", 0, "4b6ca38c3e93a02db836f24340079b7993434b404bb5f985a0805b0155739ac1"),
    ("bernoulli --k 2 --N 5", 0, "4817e0a234e0e462e31986ee3d8a6976ef70d0808e723d71954167f7b19c5195"),
    ("ratios --N 13 --nmax 200", 0, "55245b1b1303155c924c100eb324ebc14ce33dea55cd948370e79c8ad7099823"),
    ("table --which b1", 0, "83193eadfd68e70ecfb46740c8d6dc69c0a46cccfba67ea26fb638d5aac78a45"),
    ("table --which kolitsch --nmax 200", 0, "eeb4b563064329a7f5ba37db254c6cae6c303c8cb2400b56a42e4e98745bd60e"),
    ("table --which cusp-constants --N 35", 0, "75fba4b735004f324c925ea437b47a412f8119d67f437286d1410f834cec7c4f"),
]

# README shows no CSV report; these pin the bytes of `verify --format csv`
VERIFY_CSV = [
    ("verify --N 13 --nmax 60 --format csv", 0, "be33b2ffe919bd4700e1fa15b28b0d4a748e007a749e1497a26c0de5b30e3f99"),
    ("verify --N 35 --nmax 68 --format csv", 0, "732833854af5406512613bc7024e9b0b02d167b2b8e0a178644cc5889ba34b61"),
]

# the exact-value printers no other digest reaches: JSON ratios that skip zero
# main terms (N=35), non-integral [num, den] coefficient pairs, a valuation of
# 10, a bernoulli value that is an integral Fraction (-1) and one that is not,
# the zero series of an eta quotient whose prefix q^51 lies past nMax, and the
# partition side of one divisor d
EXACT_VALUES = [
    ("verify --N 35 --nmax 68 --format json", 0, "71c1dc259e22550b774e6c4380d912f48963e3615a7741de67d64027883230ad"),
    ("verify --N 35 --nmax 200 --format json", 0, "768d8f909e90b2dd70a0c9c50de99d4fc677e07b319eece044b60f362c422be7"),
    ("expand --series eisenstein-theta --N 13 --nmax 20 --format json", 0, "00ec09ad83f34a101d296f9af64ef8c526ed435ad0445a9c90000c9d74aa8ec9"),
    ("expand --series eta --N 35 --d 5 --nmax 40 --format json", 0, "a48cab9d083e261ae56764d37682b777535f0098746db9d642db9d67fe8cccf8"),
    ("bernoulli --k 1 --N 7", 0, "ee3aa64bb94a50845d5024cd4bd20202a4567aed5cd5328c0d97e9920775fc28"),
    ("bernoulli --k 1 --N 3", 0, "826dba0111f40680f3a76d942186657237e9a2da9f94ced0aa528323a382d9ed"),
    ("expand --series eta --N 35 --d 1 --nmax 3 --format json", 0, "be7878b11fcfb4b3fa9ad2cb8288663b4a07781ebb8e6b1e86bec3a65600aa92"),
    ("expand --series partition --N 35 --d 5 --nmax 40", 0, "bc821292b7052df4ff22df681f625e63fcc9c004d2d1366780d32b05ddd7413b"),
]


@pytest.mark.parametrize("line,exit_code,digest", README_EXAMPLES + VERIFY_CSV + EXACT_VALUES)
def test_readme_examples_byte_identical(capsys, line, exit_code, digest):
    code, out, _ = run_cli(capsys, *shlex.split(line))
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("nmax,exit_code", [("0", 1), ("5", 0)])
def test_table_kolitsch_requires_sturm_bound(capsys, nmax, exit_code):
    # sturm_bound is 1, 2 and 5 for N = 5, 7 and 11
    code, out, err = run_cli(capsys, "table", "--which", "kolitsch", "--nmax", nmax)
    assert code == exit_code
    assert len(out.strip().split("\n")) == 3
    if exit_code:
        assert "sturm_bound(5) = 1" in err
        assert "sturm_bound(11) = 5" in err
    else:
        assert err == ""


@pytest.mark.parametrize("exc", [ArithmeticError("cphi_5(3) = -1"), RuntimeError("duplicate check")])
def test_invariant_errors_exit_check_failed(capsys, monkeypatch, exc):
    def broken(level, n_max):
        raise exc

    monkeypatch.setattr(cli, "cphi_series", broken)
    code, out, err = run_cli(capsys, "expand", "--series", "cphi", "--N", "5", "--nmax", "3")
    assert code == 1
    assert out == ""
    assert f"error: {exc}" in err
    assert "Traceback" not in err


def test_readme_cli_block_matches_pinned_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = [
        line.strip()[len("cphi "):].split("#", 1)[0].strip()
        for line in block.splitlines()
        if line.strip().startswith("cphi ")
    ]
    assert commands == [line for line, _, _ in README_EXAMPLES]


def test_verify_below_sturm_bound_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--N", "35", "--nmax", "20")
    assert code == 1
    assert "  [FAIL] sturm-coverage: nMax=20 is below Sturm bound 68\n" in out
    assert "covers" not in out
    assert out.endswith("  overall: FAIL\n")


def test_table_kolitsch_fails_on_nonzero_residual(capsys, monkeypatch):
    monkeypatch.setattr(
        cphi.verify, "residual_series", lambda level, n_max: monomial(1, 3, n_max)
    )
    code, out, err = run_cli(
        capsys, "table", "--which", "kolitsch", "--nmax", "20", "--format", "json"
    )
    assert code == 1
    assert [r["residual_zero"] for r in json.loads(out)] == [False, False, False]
    assert "N=5: residual has a nonzero coefficient at n=3" in err


@pytest.mark.parametrize("level", ["5", "13"])
@pytest.mark.parametrize("tolerance", ["inf", "nan", "0", "-1"])
def test_verify_rejects_bad_ratio_tolerance(capsys, level, tolerance):
    code, out, err = run_cli(
        capsys, "verify", "--N", level, "--nmax", "20", "--ratio-tolerance", tolerance
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ratio tolerance must be positive and finite")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("tolerance", ["0.001", "1e-10"])
def test_verify_accepts_small_ratio_tolerance(capsys, tolerance):
    # 1e-10 must stay nonzero when the check turns the float into a Fraction
    code, out, err = run_cli(
        capsys, "verify", "--N", "13", "--nmax", "200", "--ratio-tolerance", tolerance
    )
    assert code == 0
    assert f"  [PASS] asymptotic-tolerance: |r(200)-1| = 0.000000000000 < {tolerance}\n" in out
    assert err == ""


@pytest.mark.parametrize("command", ["verify", "ratios"])
def test_missing_level_is_a_usage_error(capsys, command):
    code, out, err = run_cli(capsys, command, "--nmax", "10")
    assert code == 2
    assert out == ""
    assert err == f"error: {command} requires --N\n"


def test_expand_needs_level_except_for_vr(capsys):
    code, out, err = run_cli(capsys, "expand", "--series", "theta", "--nmax", "3")
    assert code == 2
    assert out == ""
    assert err == "error: expand requires --N for this series\n"
    code, out, err = run_cli(capsys, "expand", "--series", "vr", "--r", "2", "--nmax", "3")
    assert code == 0
    assert out.splitlines() == ["q^0: 1", "q^1: 2", "q^2: 5", "q^3: 10"]


def test_level_beyond_trial_division_exits_2(capsys):
    # 1000006000009 = 1000003^2 is not squarefree; trial division cannot show
    # it, so validation must refuse the level instead of starting a theta DP
    code, out, err = run_cli(capsys, "verify", "--N", "1000006000009", "--nmax", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot factorize 1000006000009")
    assert len(err.splitlines()) == 1


def run_python(*argv, timeout=300):
    """A fresh interpreter importing cphi from src/, with QSERIES_THREADS unset."""
    env = {k: v for k, v in os.environ.items() if k != "QSERIES_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=timeout)


@pytest.mark.parametrize("level,nmax,exit_code", [("5", "20", 0), ("35", "20", 1), ("15", "10", 2)])
def test_exit_codes_through_a_real_process(level, nmax, exit_code):
    # entry() hands main's return value to sys.exit; only a process shows it
    proc = run_python("-m", "cphi.cli", "verify", "--N", level, "--nmax", nmax)
    assert proc.returncode == exit_code
    if exit_code == 2:
        assert proc.stdout == ""
        assert proc.stderr == "error: N=15: must be coprime to 6\n"
    else:
        assert proc.stdout.endswith("  overall: PASS\n" if exit_code == 0 else "  overall: FAIL\n")
        assert proc.stderr == ""


def test_imports_load_only_what_they_use():
    # the package holds only __version__; verify needs neither the Gauss-sum,
    # Eisenstein nor CLI layer
    proc = run_python("-c", "import sys, cphi\n"
                      "print(sorted(m for m in sys.modules if m.startswith('cphi.')))\n"
                      "import cphi.verify\n"
                      "print(sorted({'cphi.gauss_sums', 'cphi.eisenstein', 'cphi.cli'} & set(sys.modules)))")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n[]\n", "")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # together they cost milliseconds and about a megabyte in every process
    proc = run_python("-c", "import sys, cphi.cli\n"
                      "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("line", ["gauss --dim 4 --a 1 --c 5", "gauss --dim 10 --a 1 --c 3", "bernoulli --k 2 --N 5"])
def test_csv_without_a_table_prints_the_text(capsys, line):
    text = run_cli(capsys, *shlex.split(line))
    assert run_cli(capsys, *shlex.split(line), "--format", "csv") == text


# Runs command lines through cli.main under sys.setprofile and prints the
# public module-level functions of cphi.*, and the public methods,
# classmethods and properties of its classes, that no call entered.  A fresh
# interpreter starts every lru_cache cold, so a cached function is entered too.
UNREACHED_SCRIPT = """
import contextlib, importlib, inspect, io, json, pkgutil, shlex, sys
import cphi
from cphi.cli import main
entered = set()
sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code) if event == "call" else None)
with contextlib.redirect_stdout(io.StringIO()):
    for line in json.loads(sys.argv[1]):
        main(shlex.split(line))
sys.setprofile(None)

def code(value):
    value = value.fget if isinstance(value, property) else getattr(value, "__func__", value)
    value = inspect.unwrap(value) if callable(value) else None
    return value.__code__ if inspect.isfunction(value) else None

unreached = []
for info in pkgutil.iter_modules(cphi.__path__):
    module = importlib.import_module("cphi." + info.name)
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        members = [(name, value)]
        if inspect.isclass(value):
            members = [(name + "." + attr, member) for attr, member in vars(value).items()
                       if not attr.startswith("_")]
        unreached += [module.__name__ + "." + qualname for qualname, member in members
                      if code(member) is not None and code(member) not in entered]
print(json.dumps(unreached))
"""


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_public_function_is_reached_by_the_pinned_command_lines():
    # code that only tests call belongs in tests/ (oracles.py, lemmas.py); exempt
    # are the names perfbench/ pins (its tracer's FUNCTIONS and METHODS, the cphi
    # functions and the attributes a session query reads) and the
    # [project.scripts] entry point
    lines = [line for line, _, _ in README_EXAMPLES + VERIFY_CSV + EXACT_VALUES]
    proc = run_python("-c", UNREACHED_SCRIPT, json.dumps(lines))
    assert proc.returncode == 0, proc.stderr
    tracer = _load(ROOT / "perfbench" / "tracer.py")
    traced = set(tracer.FUNCTIONS.values()) | {
        (f"{module}.{cls}", method) for module, cls, methods in tracer.METHODS.values()
        for method in methods}
    queried = [set(query.__code__.co_names) for query in _load(ROOT / "perfbench" / "session.py").QUERIES.values()]
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]", 1)[1].split("\n[", 1)[0]

    def pinned(name):
        owner, attr = name.rsplit(".", 1)
        if owner.count(".") > 1:  # cphi.module.Class: a method
            return (owner, attr) in traced or any(attr in names for names in queried)
        return ((owner, attr) in traced or f'"{owner}:{attr}"' in scripts
                or any({owner.rsplit(".", 1)[1], attr} <= names for names in queried))

    assert [name for name in json.loads(proc.stdout) if not pinned(name)] == []
