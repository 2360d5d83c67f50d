"""The full-instruct benchmarking method (Section V-A).

Prompts the instruct model conversationally, generates a response (up to
512 tokens in the paper), and runs the two-stage answer parser.  Prompt
style is pluggable: the paper's Appendix B JSON prompt for JSON-capable
models, or the micro chat format for the micro zoo.  Generation runs on
the continuous-batching :class:`~repro.serve.engine.ServeEngine`, whose
prefix store forwards the chat scaffold shared by every prompt once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Sequence

from repro.eval.parsing import FallbackInterpreter, ParseOutcome, parse_model_answer
from repro.eval.prompts import format_micro_chat_prompt
from repro.mcq.generation import MCQuestion
from repro.model.sampling import GenerationConfig
from repro.model.transformer import TransformerLM
from repro.serve.admission import QueueFullError
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.request import InferenceRequest, RequestKind
from repro.serve.scheduler import SchedulerConfig

PromptBuilder = Callable[[MCQuestion], str]


class DecoderLike(Protocol):
    def encode(self, text: str, add_bos: bool = ..., add_eos: bool = ...) -> List[int]: ...
    def decode(self, ids: Sequence[int], skip_special: bool = ...) -> str: ...


@dataclass
class FullInstructRecord:
    """One question's full-instruct transcript."""

    question_id: int
    response: str
    outcome: ParseOutcome


class FullInstructEvaluator:
    """Generate-and-parse evaluation of an instruct model."""

    def __init__(
        self,
        model: TransformerLM,
        tokenizer: DecoderLike,
        prompt_builder: Optional[PromptBuilder] = None,
        generation: Optional[GenerationConfig] = None,
        interpreter: Optional[FallbackInterpreter] = None,
        eos_id: Optional[int] = None,
        prefix_ids: Sequence[int] = (),
    ) -> None:
        self.model = model
        self.tokenizer = tokenizer
        self.prompt_builder = prompt_builder or format_micro_chat_prompt
        stop = (eos_id,) if eos_id is not None else ()
        self.generation = generation or GenerationConfig(
            max_new_tokens=48, temperature=0.0, stop_token_ids=stop
        )
        self.interpreter = interpreter or FallbackInterpreter()
        self.prefix_ids = list(prefix_ids)
        self.records: List[FullInstructRecord] = []
        self.last_engine: Optional[ServeEngine] = None

    def predict_many(self, questions: Sequence[MCQuestion]) -> List[Optional[int]]:
        """Serve every question as a GENERATE request, then parse each
        response in question order and record its transcript.

        A refused submit (full admission queue) steps the engine and
        retries.  Requests carry no deadline and the engine has no fault
        hook, so every one runs to completion.
        """
        # every single request (prompt + decode budget <= max_seq_len)
        # must fit, with room for a real batch of them
        budget = max(2048, 4 * self.model.config.max_seq_len)
        engine = ServeEngine(
            self.model,
            config=ServeConfig(scheduler=SchedulerConfig(token_budget=budget)),
        )
        self.last_engine = engine
        for i, question in enumerate(questions):
            prompt = self.prompt_builder(question)
            request = InferenceRequest(
                request_id=f"q-{i:05d}",
                prompt_ids=tuple(self.prefix_ids + self.tokenizer.encode(prompt)),
                kind=RequestKind.GENERATE,
                generation=self.generation,
            )
            while True:
                try:
                    engine.submit(request)
                    break
                except QueueFullError:
                    engine.step()
        predictions: List[Optional[int]] = []
        for question, state in zip(questions, engine.drain()):
            response = self.tokenizer.decode(state.output_ids)
            outcome = parse_model_answer(response, question.options, self.interpreter)
            self.records.append(
                FullInstructRecord(question.question_id, response, outcome)
            )
            predictions.append(outcome.answer_idx)
        return predictions

    def answer(self, question: MCQuestion) -> ParseOutcome:
        """Prompt, generate, parse; records the transcript."""
        self.predict_many([question])
        return self.records[-1].outcome

    def predict(self, question: MCQuestion) -> Optional[int]:
        return self.predict_many([question])[0]

    @property
    def parse_failure_rate(self) -> float:
        if not self.records:
            return 0.0
        failed = sum(1 for r in self.records if not r.outcome.parsed)
        return failed / len(self.records)

    @property
    def interpreter_usage_rate(self) -> float:
        """How often the regex stage failed and the interpreter stepped in."""
        if not self.records:
            return 0.0
        used = sum(1 for r in self.records if r.outcome.stage == "interpreter")
        return used / len(self.records)
