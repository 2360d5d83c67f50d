"""ServingEvaluationRunner ≡ BatchedEvaluationRunner.

The serving engine is a throughput device, never an accuracy device:
replaying a benchmark through continuous batching, prefix reuse, and
admission backpressure must produce exactly the per-question answers
the batched evaluation engine produces — for both the next-token
(SCORE) and full-instruct (GENERATE) methodologies.
"""

import pytest

from repro.corpus import make_astro_knowledge
from repro.eval import (
    BatchedEvaluationRunner,
    FullInstructEvaluator,
    ServingEvaluationRunner,
    TokenPredictionEvaluator,
    format_micro_chat_prompt,
)
from repro.eval.prompts import format_next_token_prompt
from repro.mcq import build_benchmark
from repro.model import ModelConfig, TransformerLM
from repro.serve import SchedulerConfig, ServeConfig
from repro.tokenizer import WordTokenizer

N_QUESTIONS = 24
FEW_SHOT = 2


@pytest.fixture(scope="module")
def eval_world():
    astro = make_astro_knowledge(n_facts=80, seed=11)
    bench = build_benchmark(
        astro, n_articles=8, facts_per_article=5, dev_size=4, seed=12
    )
    texts = []
    for f in astro.facts:
        texts.extend(f.statement(i) for i in range(4))
    texts.append(
        "Question : A B C D Answer : Astrophysics and Cosmology "
        "Multiple choice questions Solution set :"
    )
    tok = WordTokenizer.train(texts, vocab_size=3000, space_prefix=False)
    longest = max(
        len(tok.encode(format_next_token_prompt(q, bench.few_shot(FEW_SHOT))))
        for q in bench.test
    )
    model = TransformerLM(
        ModelConfig(
            vocab_size=len(tok.vocab), d_model=32, n_layers=2, n_heads=4,
            max_seq_len=longest + 24,
        ),
        seed=0,
    )
    return model, tok, bench


class TestTokenPredEquivalence:
    def test_serving_answers_match_batched(self, eval_world):
        model, tok, bench = eval_world
        batched_eval = TokenPredictionEvaluator(
            model, tok, bench.few_shot(FEW_SHOT)
        )
        batched = BatchedEvaluationRunner(bench, max_questions=N_QUESTIONS).run(
            batched_eval, "next-token", "micro"
        )
        serving_eval = TokenPredictionEvaluator(
            model, tok, bench.few_shot(FEW_SHOT),
            answer_map=batched_eval.answer_map,
        )
        runner = ServingEvaluationRunner(bench, max_questions=N_QUESTIONS)
        serving = runner.run(serving_eval, "next-token", "micro")
        assert serving.predictions == batched.predictions
        assert serving.accuracy == pytest.approx(batched.accuracy)
        assert serving.per_topic == batched.per_topic

    def test_serving_reuses_shared_scaffold(self, eval_world):
        model, tok, bench = eval_world
        evaluator = TokenPredictionEvaluator(
            model, tok, bench.few_shot(FEW_SHOT)
        )
        runner = ServingEvaluationRunner(bench, max_questions=N_QUESTIONS)
        runner.run(evaluator, "next-token", "micro")
        snap = runner.last_engine.metrics_snapshot()
        # one cold prefill, then every question forks the cached scaffold
        assert snap["prefix_cache"]["misses"] == 1
        assert snap["prefix_cache"]["hits"] == N_QUESTIONS - 1
        assert snap["prefix_hit_tokens"] > 0

    def test_backpressure_does_not_change_answers(self, eval_world):
        """A tiny admission queue forces submit/step interleaving."""
        model, tok, bench = eval_world
        evaluator = TokenPredictionEvaluator(
            model, tok, bench.few_shot(FEW_SHOT)
        )
        reference = BatchedEvaluationRunner(
            bench, max_questions=N_QUESTIONS
        ).run(evaluator, "next-token", "micro")
        tight = ServeConfig(
            queue_capacity=2,
            scheduler=SchedulerConfig(token_budget=8192, max_running=2),
        )
        runner = ServingEvaluationRunner(
            bench, max_questions=N_QUESTIONS, config=tight
        )
        serving = runner.run(evaluator, "next-token", "micro")
        assert serving.predictions == reference.predictions


class TestFullInstructEquivalence:
    def test_serving_answers_and_records_match(self, eval_world):
        model, tok, bench = eval_world
        reference_eval = FullInstructEvaluator(
            model, tok, prompt_builder=format_micro_chat_prompt
        )
        reference = BatchedEvaluationRunner(bench, max_questions=12).run(
            reference_eval, "full-instruct", "micro"
        )
        serving_eval = FullInstructEvaluator(
            model, tok, prompt_builder=format_micro_chat_prompt
        )
        serving = ServingEvaluationRunner(bench, max_questions=12).run(
            serving_eval, "full-instruct", "micro"
        )
        assert serving.predictions == reference.predictions
        assert [r.response for r in serving_eval.records] == [
            r.response for r in reference_eval.records
        ]
        assert serving_eval.parse_failure_rate == pytest.approx(
            reference_eval.parse_failure_rate
        )


class TestRunnerDispatch:
    def test_unknown_evaluator_type_rejected(self, eval_world):
        _, _, bench = eval_world
        runner = ServingEvaluationRunner(bench, max_questions=2)
        with pytest.raises(TypeError, match="evaluator"):
            runner.run(object(), "m", "micro")
