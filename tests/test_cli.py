import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import thompsonv
from thompsonv.cli import main
from thompsonv.elements import Element
from thompsonv.experiments import survey_bounds, survey_csv
from thompsonv.generators import format_word
from thompsonv.words import synthesize_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "(.,.)|(.,.)|[1,2]")
    assert code == 0
    assert out == ".|.|[1]\n"


def test_stats(capsys):
    code, out, _ = run(capsys, "stats", "(.,(.,(.,.)))|(.,(.,(.,.)))|[1,3,2,4]")
    assert code == 0
    assert "N=3 B=4" in out
    assert "inF=false inT=false" in out


def test_deep_comb_reduce_and_stats(capsys):
    # 5000 nested carets: parsing, reduction and printing use no recursion
    comb = "(.," * 5000 + "." + ")" * 5000
    images = list(range(1, 5002))
    identity = f"{comb}|{comb}|[{','.join(map(str, images))}]"
    images[-2:] = [5001, 5000]
    swap = f"{comb}|{comb}|[{','.join(map(str, images))}]"
    assert run(capsys, "reduce", identity) == (0, ".|.|[1]\n", "")
    assert run(capsys, "stats", identity) == (0, "N=0 B=1 inF=true inT=true\n", "")
    assert run(capsys, "reduce", swap) == (0, swap + "\n", "")
    assert run(capsys, "stats", swap) == (0, "N=5000 B=3 inF=false inT=false\n", "")


def test_bounds(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "4", "--b", "1")
    assert code == 0
    assert "new_upper=4\n" in out
    code, out, _ = run(capsys, "bounds", "--n", "8")
    assert "birget_upper=24" in out
    code, out, _ = run(capsys, "bounds", "--n", "7", "--b", "3")
    assert "new_upper=11.754888" in out


def test_mul_inv_eq(capsys):
    x0 = "(.,(.,.))|((.,.),.)|[1,2,3]"
    _, inv_text, _ = run(capsys, "inv", x0)
    code, out, _ = run(capsys, "mul", x0, inv_text.strip())
    assert out == ".|.|[1]\n"
    code, out, _ = run(capsys, "eq", x0, x0)
    assert out == "true\n"
    code, out, _ = run(capsys, "eq", x0, ".|.|[1]")
    assert out == "false\n"


def test_map(capsys):
    code, out, _ = run(capsys, "map", "(.,(.,.))|((.,.),.)|[1,2,3]")
    assert out.splitlines() == [
        "[0,1/2) -> [0,1/4)",
        "[1/2,3/4) -> [1/4,1/2)",
        "[3/4,1) -> [1/2,1)",
    ]


def test_collapse(capsys):
    code, out, _ = run(capsys, "collapse", "(.,(.,.))|(.,(.,.))|[2,3,1]")
    assert code == 0
    assert "collapsed: (.,.)|(.,.)|[2,1]" in out


def test_length_and_ball(capsys):
    code, out, _ = run(capsys, "length", "(.,(.,.))|((.,.),.)|[1,2,3]", "--radius", "3")
    assert out == "length=1\n"
    code, out, _ = run(capsys, "ball", "--radius", "2")
    assert out.splitlines() == ["0: 1", "1: 7", "2: 36"]


def test_word_round_trip(capsys):
    y1 = "(.,(.,(.,.)))|(.,(.,(.,.)))|[1,3,2,4]"
    _, word, _ = run(capsys, "word", "--synthesize", y1)
    code, out, _ = run(capsys, "word", "--evaluate", word.strip())
    assert Element.parse(out.strip()).equals(Element.parse(y1))


def test_counterexample(capsys):
    code, out, _ = run(capsys, "counterexample", "--n", "2")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["y_n_carets"] == "5"
    assert lines["conjugation_mirrored"] == "true"
    assert lines["conjugation_as_written"] == "false"
    assert int(lines["witness_word_length"]) <= 18
    code, out, _ = run(capsys, "counterexample", "--n", "3")
    assert code == 0
    assert out == (
        "y_n: (.,(.,(.,(.,(.,(.,(.,.)))))))|(.,(.,(.,(.,(.,(.,(.,.)))))))|[1,2,3,4,5,7,6,8]\n"
        "y_n_carets: 7\n"
        "y_n_clusters: 4\n"
        "conjugation_as_written: false\n"
        "conjugation_mirrored: true\n"
        "product: (.,(.,(.,(.,(.,(.,(.,.)))))))|(.,(.,(.,(.,(.,(.,(.,.)))))))|[1,3,2,5,4,7,6,8]\n"
        "product_carets: 7\n"
        "product_clusters: 8\n"
        "witness_word_length: 23\n"
        "witness_word: c^-1 x1^-1 pi x1 c x0 x0 c^-1 x1^-1 pi x1 c x0 x0 c^-1 x1^-1 pi x1 c"
        " x0^-1 x0^-1 x0^-1 x0^-1\n"
    )


def test_survey(capsys):
    code, out, _ = run(capsys, "survey", "--count", "5", "--carets", "3", "--radius", "2", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "element,N,B,exact_length,birget_upper,new_upper"
    assert len(lines) == 6
    # identical invocation is byte-identical
    code, again, _ = run(capsys, "survey", "--count", "5", "--carets", "3", "--radius", "2", "--seed", "1")
    assert again == out
    # the exact_length column comes from the ball search; the expected rows are fixed
    code, out, _ = run(capsys, "survey", "--count", "5", "--carets", "3", "--radius", "4", "--seed", "1")
    assert out.splitlines() == [
        "element,N,B,exact_length,birget_upper,new_upper",
        '"(.,(.,(.,.)))|(.,((.,.),.))|[1,2,3,4]",3,1,1,4.754888,3.000000',
        '"(.,(.,(.,.)))|(.,((.,.),.))|[4,2,3,1]",3,3,3,4.754888,7.754888',
        '"((.,.),(.,.))|((.,.),(.,.))|[2,4,3,1]",3,4,3,4.754888,11.000000',
        '"((.,(.,.)),.)|(.,(.,(.,.)))|[2,1,3,4]",3,3,3,4.754888,7.754888',
        '"((.,.),(.,.))|(((.,.),.),.)|[2,1,3,4]",3,3,4,4.754888,7.754888',
    ]


def test_constants(capsys):
    code, out, _ = run(capsys, "constants", "--radius", "2")
    assert code == 0
    assert "generators: x0 x1 c pi" in out
    assert "max_carets_over_length:" in out
    # the witnesses are the first maxima in BFS order, so they pin that order
    code, out, _ = run(capsys, "constants", "--radius", "4")
    assert out.splitlines() == [
        "radius: 4",
        "generators: x0 x1 c pi",
        "ball_sizes: 1 7 36 167 767",
        "total: 978",
        "max_carets_over_length: 3.000000",
        "max_carets_over_length_witness: (.,(.,(.,.)))|(.,((.,.),.))|[1,2,3,4]",
        "max_length_over_cluster_bound: 1.000000",
        "max_length_over_cluster_bound_witness: (((.,.),.),.)|((.,(.,.)),.)|[1,2,3,4]",
    ]


def test_usage_errors_exit_one(capsys, monkeypatch):
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "reduce", "(.,.)|(.,.)")[0] == 1  # parse error
    assert run(capsys, "reduce", "(.,.)|(.,.)|[1,1]")[0] == 1  # invalid permutation
    code, _, err = run(capsys, "bounds", "--n", "3", "--b", "9")
    assert code == 1 and "cluster count" in err
    huge = "1" + "0" * 400  # too large for a float bound
    for argv in (["--n", huge], ["--n", huge, "--b", "3"]):
        code, out, err = run(capsys, "bounds", *argv)
        assert code == 1 and out == "" and "caret count too large" in err
    code, _, err = run(capsys, "ball", "--radius", "2", "--budget-mb", "-1")
    assert code == 1 and "--budget-mb" in err
    code, out, err = run(capsys, "survey", "--count", "-1", "--radius", "2")
    assert code == 1 and out == "" and "count" in err
    code, out, err = run(capsys, "survey", "--carets", "0", "--radius", "2")
    assert code == 1 and out == "" and "caret count" in err
    for value in ("-3", "abc"):
        monkeypatch.setenv("THOMPSON_MEM_BUDGET_MB", value)
        code, _, err = run(capsys, "length", "(.,.)|(.,.)|[2,1]", "--radius", "2")
        assert code == 1 and "THOMPSON_MEM_BUDGET_MB" in err


def test_resource_error_exit_two(capsys, monkeypatch):
    monkeypatch.setenv("THOMPSON_MEM_BUDGET_MB", "0")
    code, _, err = run(capsys, "ball", "--radius", "3")
    assert code == 2
    assert "memory budget" in err
    # the counterexample family is refused before any diagram is built; it has no radius
    monkeypatch.setenv("THOMPSON_MEM_BUDGET_MB", "16")
    code, out, err = run(capsys, "counterexample", "--n", "5000")
    assert (code, out) == (2, "")
    assert err == "resource error: memory budget of 16 MB exceeded\n"
    # so is a survey whose random trees' Catalan table would pass the budget
    argv = ["survey", "--count", "1", "--carets", "20000", "--radius", "0", "--budget-mb", "16"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "resource error: memory budget of 16 MB exceeded\n"
    # a length query past the budget names the radius its two searches completed together
    x = "(((.,.),.),((.,.),.))|((.,(.,(.,.))),(.,.))|[1,3,4,6,2,5]"
    code, out, err = run(capsys, "length", x, "--radius", "12", "--budget-mb", "1")
    assert (code, out) == (2, "")
    assert err == "resource error: memory budget of 1 MB exceeded; completed radius 8\n"


def test_survey_holds_one_row(capsys):
    # each row is written as it is drawn, so 2000 rows peak about as high as 20
    def peak(count):
        with open(os.devnull, "w") as sink:
            tracemalloc.start()
            survey_csv(survey_bounds(count, 20, 0, 0), sink)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return peak

    few = peak(20)
    assert peak(2000) < 2 * few
    # no row draws no tree, so no Catalan table is charged
    argv = ["survey", "--count", "0", "--carets", "100000", "--radius", "0", "--budget-mb", "1"]
    assert run(capsys, *argv) == (0, "element,N,B,exact_length,birget_upper,new_upper\n", "")


def test_element_outputs_reparse(capsys):
    for argv in (
        ["reduce", "((.,.),.)|((.,.),.)|[1,2,3]"],
        ["inv", "(.,(.,.))|((.,.),.)|[1,2,3]"],
        ["mul", "(.,.)|(.,.)|[2,1]", "(.,.)|(.,.)|[2,1]"],
    ):
        _, out, _ = run(capsys, *argv)
        Element.parse(out.strip())  # canonical text round trips


def test_module_entry_point_exit_codes():
    """`python -m thompsonv` in a fresh interpreter: the exit codes and no traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(thompsonv.__file__).parents[1]))
    env.pop("THOMPSON_MEM_BUDGET_MB", None)

    def run_module(*argv, **extra_env):
        proc = subprocess.run(
            [sys.executable, "-m", "thompsonv", *argv],
            capture_output=True,
            text=True,
            env={**env, **extra_env},
            timeout=120,
        )
        assert "Traceback" not in proc.stderr
        return proc.returncode, proc.stdout

    assert run_module("reduce", "(.,.)|(.,.)|[1,2]") == (0, ".|.|[1]\n")
    assert run_module("reduce", "(.,.)|(.,.)|[1,1]")[0] == 1
    assert run_module("survey", "--count", "-1") == (1, "")
    assert run_module("ball", "--radius", "3", THOMPSON_MEM_BUDGET_MB="0")[0] == 2
    assert run_module("counterexample", "--n", "5000", THOMPSON_MEM_BUDGET_MB="16") == (2, "")
    survey = ["survey", "--count", "1", "--carets", "20000", "--radius", "0"]
    assert run_module(*survey, THOMPSON_MEM_BUDGET_MB="16") == (2, "")
    code, out = run_module("counterexample", "--n", "5000")  # the default budget holds it
    assert code == 0 and "product_carets: 10001\n" in out


def test_closed_pipe_exits_without_traceback():
    """A reader that takes one line and closes the pipe ends the survey with exit 1, quietly."""
    env = dict(os.environ, PYTHONPATH=str(Path(thompsonv.__file__).parents[1]))
    argv = ["survey", "--count", "100000", "--carets", "6", "--radius", "0"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "thompsonv", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"element,N,B,exact_length,birget_upper,new_upper\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_word_evaluate_reads_stdin():
    """A synthesized 1024-caret word is over Linux's 128 KiB limit on one argument, so `-` pipes it."""
    x = Element.random(1024, random.Random(0)).reduce()
    word = format_word(synthesize_word(x))
    assert len(word) > 128 << 10
    proc = subprocess.run(
        [sys.executable, "-m", "thompsonv", "word", "--evaluate", "-"],
        input=word,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(thompsonv.__file__).parents[1])),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == x.text() + "\n"
