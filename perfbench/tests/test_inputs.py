import pytest

from perfbench import inputs


def test_prefix_requests_replay_per_seed():
    a = inputs.prefix_requests(7, 150, 15.0, 4000)
    assert a == inputs.prefix_requests(7, 150, 15.0, 4000)
    b = inputs.prefix_requests(8, 150, 15.0, 4000)
    assert [s.due for s in a] != [s.due for s in b]
    assert [s.prompt for s in a] != [s.prompt for s in b]


def test_prefix_prompts_share_boundary_and_scaffold():
    specs = inputs.prefix_requests(7, 150, 15.0, 4000)
    assert all(s.prompt[0] == inputs.BOUNDARY_ID for s in specs)
    assert len({s.prompt[:100] for s in specs}) == 3
    assert 0.7 < inputs.shared_token_frac([[s.prompt for s in specs]]) < 0.9
    assert len(specs) == 150
    assert sum(not s.score for s in specs) == 30
    assert sorted(s.due for s in specs) == [s.due for s in specs]


def test_decode_bursts_replay_and_share_nothing():
    a = inputs.decode_burst(7, 0, 16, 4000)
    assert a == inputs.decode_burst(7, 0, 16, 4000)
    assert a != inputs.decode_burst(8, 0, 16, 4000)
    assert a != inputs.decode_burst(7, 1, 16, 4000)
    assert len({s.prompt[0] for s in a}) == len(a)
    assert inputs.shared_token_frac([[s.prompt for s in a]]) == 0.0
    assert sum(s.greedy for s in a) == 1


def test_decode_bursts_carry_the_same_work_for_every_seed():
    def shape(burst):
        return sorted((len(s.prompt), s.max_new_tokens) for s in burst)

    a = inputs.decode_burst(7, 0, 8, 4000)
    assert shape(a) == shape(inputs.decode_burst(7, 1, 8, 4000)) == shape(inputs.decode_burst(8, 0, 8, 4000))
    assert shape(a)[0] == (inputs.DECODE_PROMPT_LEN[0], inputs.DECODE_OUTPUT_LEN[0])
    assert shape(a)[-1] == (inputs.DECODE_PROMPT_LEN[1], inputs.DECODE_OUTPUT_LEN[1])
    assert [len(s.prompt) for s in a] != [len(s.prompt) for s in inputs.decode_burst(8, 0, 8, 4000)]


def test_train_batches_replay_per_seed():
    a = inputs.train_batches(7, 2, 4, 8, 4000)
    b = inputs.train_batches(7, 2, 4, 8, 4000)
    c = inputs.train_batches(8, 2, 4, 8, 4000)
    assert all((x == y).all() for pa, pb in zip(a, b) for x, y in zip(pa, pb))
    assert not (a[0][0] == c[0][0]).all()
    assert (a[0][0][:, 1:] == a[0][1][:, :-1]).all()


def test_shared_token_frac_counts_longest_earlier_prefix_per_group():
    prompts = [(1, 2, 3, 4), (1, 2, 9), (1, 2, 3, 7), (5,)]
    # 0 + 2 + 3 + 0 shared of 4 + 3 + 4 + 1 tokens
    assert inputs.shared_token_frac([prompts]) == pytest.approx(5 / 12)
    # nothing is shared across groups (separate engines)
    assert inputs.shared_token_frac([prompts[:1], prompts[1:2]]) == 0.0
