"""Each output check fails when the program's output is wrong.

Every test corrupts one kind of output on its way out of the program
and asserts that the check reports FAIL, the run is not correct and
the failure is counted.
"""

import dataclasses
import json
import math

import pytest

from perfbench import harness, run, workloads
from perfbench.workloads import TINY


def _failing_checks(lines):
    return [line for line in lines if line.startswith("check FAIL")]


def _assert_fails(name, check_name):
    lines, result = harness.run_workload(name, 3, 0.3, False, sizes=TINY)
    failing = _failing_checks(lines)
    assert any(check_name in line for line in failing), lines
    assert not result["correct"] and result["failed"] >= 1


def test_eval_check_catches_a_wrong_batched_prediction(monkeypatch):
    from repro.eval import TokenPredictionEvaluator

    original = TokenPredictionEvaluator.predict_many
    monkeypatch.setattr(
        TokenPredictionEvaluator, "predict_many",
        lambda self, qs: [(p + 1) % 4 for p in original(self, qs)],
    )
    _assert_fails("eval_mcq", "predict_many equals per-question predict")


def _corrupt_outcomes(monkeypatch, corrupt):
    original = workloads.serve_open_loop

    def serve(model, specs, tracer, probes):
        run_ = original(model, specs, tracer, probes)
        vocab = model.config.vocab_size
        run_["outcomes"] = {rid: corrupt(o, vocab) for rid, o in run_["outcomes"].items()}
        return run_

    monkeypatch.setattr(workloads, "serve_open_loop", serve)


def test_serve_check_catches_a_wrong_score_argmax(monkeypatch):
    _corrupt_outcomes(
        monkeypatch,
        lambda o, vocab: o if o.argmax is None
        else dataclasses.replace(o, argmax=(o.argmax + 1) % vocab),
    )
    _assert_fails("serve_prefix", "SCORE argmax equals prefill argmax")


def test_serve_check_catches_a_wrong_greedy_token(monkeypatch):
    _corrupt_outcomes(
        monkeypatch,
        lambda o, vocab: dataclasses.replace(o, output=[(o.output[0] + 1) % vocab] + o.output[1:]),
    )
    _assert_fails("serve_decode", "greedy GENERATE equals generate()")


def _corrupt_losses(monkeypatch, corrupt):
    from repro.train import Trainer

    original = Trainer.train

    def train(self, *args, **kwargs):
        history = original(self, *args, **kwargs)
        history.losses[:] = [corrupt(loss) for loss in history.losses]
        return history

    monkeypatch.setattr(Trainer, "train", train)


@pytest.mark.parametrize(
    "corrupt, check_name",
    [
        (lambda loss: loss + 1e-3, "first-step loss equals loss_and_backward"),
        (lambda loss: math.nan, "every loss is finite"),
    ],
)
def test_train_checks_catch_a_wrong_loss(monkeypatch, corrupt, check_name):
    _corrupt_losses(monkeypatch, corrupt)
    _assert_fails("train_step", check_name)


def test_run_exits_1_when_a_check_fails(monkeypatch, capsys):
    _corrupt_losses(monkeypatch, lambda loss: loss + 1e-3)
    code = run.main(["--workload", "train_step", "--seed", "3", "--seconds", "0.01", "--parts", "1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert _failing_checks(out)
    assert json.loads(out[-1])["correct"] is False
