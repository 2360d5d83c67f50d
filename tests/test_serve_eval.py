"""The benchmark served through the continuous-batching engine.

The serving engine is a throughput device, never an accuracy device:
scoring questions as ``SCORE`` requests must give exactly the answers of
the batched next-token evaluator, and the full-instruct evaluator, which
generates on the engine, must produce exactly the transcripts of plain
sequential ``generate()`` — under prefix reuse and admission
backpressure alike.
"""

import numpy as np
import pytest

from repro.corpus import make_astro_knowledge
from repro.eval import (
    FullInstructEvaluator,
    TokenPredictionEvaluator,
    format_micro_chat_prompt,
)
from repro.eval.prompts import format_next_token_prompt
from repro.mcq import build_benchmark
from repro.model import ModelConfig, TransformerLM, generate
from repro.serve import InferenceRequest, RequestKind, ServeEngine
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


@pytest.fixture(scope="module")
def scored(eval_world):
    """``(evaluator, engine, argmax predictions)`` of the first
    ``N_QUESTIONS`` questions served as SCORE requests."""
    model, tok, bench = eval_world
    evaluator = TokenPredictionEvaluator(model, tok, bench.few_shot(FEW_SHOT))
    questions = bench.test[:N_QUESTIONS]
    engine = ServeEngine(model)
    for i, question in enumerate(questions):
        engine.submit(
            InferenceRequest(
                f"q-{i}",
                tuple(evaluator._prompt_ids(question)),
                kind=RequestKind.SCORE,
            )
        )
    letter_ids = evaluator.answer_map.letter_ids()
    predictions = [
        int(np.argmax(state.final_logits[letter_ids])) for state in engine.drain()
    ]
    return evaluator, engine, predictions


class TestTokenPredEquivalence:
    def test_serving_answers_match_batched(self, eval_world, scored):
        _, _, bench = eval_world
        evaluator, _, predictions = scored
        assert predictions == evaluator.predict_many(bench.test[:N_QUESTIONS])

    def test_serving_reuses_shared_scaffold(self, scored):
        _, engine, _ = scored
        snap = engine.metrics_snapshot()
        # one cold prefill, then every question forks the stored scaffold
        assert snap["prefix_cache"]["misses"] == 1
        assert snap["prefix_cache"]["hits"] == N_QUESTIONS - 1
        assert snap["prefix_hit_tokens"] > 0


class TestFullInstructEquivalence:
    def test_serving_answers_and_records_match(self, eval_world):
        model, tok, bench = eval_world
        questions = bench.test[:12]
        evaluator = FullInstructEvaluator(
            model, tok, prompt_builder=format_micro_chat_prompt
        )
        predictions = evaluator.predict_many(questions)
        assert predictions == [r.outcome.answer_idx for r in evaluator.records]
        for question, record in zip(questions, evaluator.records):
            prompt_ids = tok.encode(format_micro_chat_prompt(question))
            reference = generate(model, prompt_ids, evaluator.generation)
            assert record.question_id == question.question_id
            assert record.response == tok.decode(reference)

    def test_backpressure_does_not_change_answers(self, eval_world):
        """More questions than the 64-slot admission queue forces
        submit/step interleaving."""
        model, tok, bench = eval_world
        questions = (bench.test * 2)[:70]
        evaluator = FullInstructEvaluator(model, tok, eos_id=tok.vocab.eos_id)
        predictions = evaluator.predict_many(questions)
        assert len(predictions) == 70
        assert evaluator.last_engine.metrics_snapshot()["rejected"] > 0
        responses = [r.response for r in evaluator.records[:6]]

        one_by_one = FullInstructEvaluator(model, tok, eos_id=tok.vocab.eos_id)
        assert [one_by_one.predict(q) for q in questions[:6]] == predictions[:6]
        assert [r.response for r in one_by_one.records] == responses
