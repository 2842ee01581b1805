"""The one work budget: its default, and the message each search raises."""

import inspect
import json

import pytest

from nzflow import (
    DEFAULT_MAX_WORK,
    Budget,
    BudgetExceededError,
    compute_oddness,
    cyclic_connectivity,
    five_flow_oddness4,
    is_cyclically_k_connected,
    solve_nowhere_zero_flow,
)
from nzflow.catalog import flower_snark, petersen
from nzflow.cli import build_parser, main
from nzflow.graph6 import serialize_graph6


def test_spend_returns_the_units_used_and_raises_past_the_limit():
    budget = Budget(5, "toy", "steps")
    assert budget.spend() == 1
    assert budget.spend(4) == 5
    with pytest.raises(BudgetExceededError, match="^toy search exceeded 5 steps$"):
        budget.spend()
    assert budget.used == 6
    unlimited = Budget(None)
    assert unlimited.spend(10**9) == 10**9


@pytest.mark.parametrize(
    "func",
    [
        five_flow_oddness4,
        cyclic_connectivity,
        is_cyclically_k_connected,
        compute_oddness,
        solve_nowhere_zero_flow,
    ],
)
def test_every_max_work_defaults_to_the_one_default(func):
    default = inspect.signature(func).parameters["max_work"].default
    assert default == DEFAULT_MAX_WORK


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["oddness"],
        ["cyclic"],
        ["cyclic", "--k", "6"],
        ["flow", "--k", "5"],
    ],
)
def test_max_work_option_defaults_to_the_one_default(argv):
    args = build_parser().parse_args([argv[0], "graphs.g6", *argv[1:]])
    assert args.max_work == DEFAULT_MAX_WORK


@pytest.mark.parametrize(
    "search, message",
    [
        (
            lambda: cyclic_connectivity(flower_snark(5), max_work=10),
            "cyclic connectivity search exceeded 10 work units",
        ),
        (
            lambda: is_cyclically_k_connected(petersen(), 6, max_work=10),
            "cyclic connectivity search exceeded 10 work units",
        ),
        (
            lambda: compute_oddness(flower_snark(9), max_work=50),
            "oddness search exceeded 50 work units",
        ),
        (
            lambda: solve_nowhere_zero_flow(petersen(), 4, max_work=20),
            "flow search exceeded 20 assignments",
        ),
    ],
    ids=["cyclic", "cyclic-k", "oddness", "flow"],
)
def test_each_search_names_itself_in_its_budget_error(search, message):
    with pytest.raises(BudgetExceededError) as info:
        search()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze"], "oddness search exceeded 50 work units"),
        (["oddness"], "oddness search exceeded 50 work units"),
        (["cyclic"], "cyclic connectivity search exceeded 50 work units"),
        (["cyclic", "--k", "6"], "cyclic connectivity search exceeded 50 work units"),
        (["flow", "--k", "4"], "flow search exceeded 50 assignments"),
    ],
    ids=["analyze", "oddness", "cyclic", "cyclic-k", "flow"],
)
def test_each_record_carries_its_search_budget_message(capsys, tmp_path, argv, message):
    path = tmp_path / "flower-9.g6"
    path.write_text(serialize_graph6(flower_snark(9)) + "\n")
    code = main([argv[0], str(path), *argv[1:], "--max-work", "50"])
    out, err = capsys.readouterr()
    assert code == 3
    (record,) = [json.loads(line) for line in out.splitlines()]
    assert record["error"] == f"budget exceeded: {message}"
    assert record["budget_exceeded"] is True
    assert err == f"line-1: budget exceeded: {message}\n"
