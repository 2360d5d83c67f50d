"""Batch evaluation over a benchmark with per-topic breakdowns."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.mcq.dataset import MCQBenchmark
from repro.mcq.generation import MCQuestion

#: Maps a whole question list to a prediction list (order-aligned).
BatchPredictor = Callable[[Sequence[MCQuestion]], Sequence[Optional[int]]]


@dataclass
class EvaluationResult:
    """Accuracy summary of one (model, method) pair."""

    method: str
    model_name: str
    n_questions: int
    accuracy: float
    per_topic: Dict[str, float] = field(default_factory=dict)
    predictions: List[Optional[int]] = field(default_factory=list)
    parse_failures: int = 0

    @property
    def score_percent(self) -> float:
        return 100.0 * self.accuracy

    def summary_row(self) -> str:
        return f"{self.model_name:<36s} {self.method:<24s} {self.score_percent:5.1f}%"


class EvaluationRunner:
    """Applies a batch predictor across a benchmark's test split.

    The predictor is normally an evaluator's bound ``predict_many``: the
    next-token evaluator scores shared-prefix batches, the full-instruct
    evaluator serves the questions through the continuous-batching engine.
    """

    def __init__(
        self, benchmark: MCQBenchmark, max_questions: Optional[int] = None
    ) -> None:
        self.benchmark = benchmark
        self.max_questions = max_questions

    def run(
        self, predict_many: BatchPredictor, method: str, model_name: str
    ) -> EvaluationResult:
        questions = self.benchmark.test[: self.max_questions]
        predictions = list(predict_many(questions))
        if len(predictions) != len(questions):
            raise ValueError(
                f"batch predictor returned {len(predictions)} predictions "
                f"for {len(questions)} questions"
            )
        per_topic: Dict[str, List[bool]] = {}
        for q, p in zip(questions, predictions):
            per_topic.setdefault(q.topic, []).append(p == q.correct_idx)
        return EvaluationResult(
            method=method,
            model_name=model_name,
            n_questions=len(questions),
            accuracy=MCQBenchmark.accuracy(questions, predictions),
            per_topic={t: sum(v) / len(v) for t, v in sorted(per_topic.items())},
            predictions=predictions,
            parse_failures=predictions.count(None),
        )
