"""Shared pytest plumbing: a tiny trained state, and one summary line per
acceptance criterion."""

import pytest

from portraitflow.synthdata import generate_sample, make_corpus_specs
from portraitflow.training import TrainConfig, init_trainer, prepare_training_tensors, train_step
from tiny_configs import TINY_DIT, TINY_ENC, TINY_SYNTH

_CRITERIA = []


@pytest.fixture(scope="module")
def tiny_state():
    samples = [generate_sample(s, TINY_SYNTH)
               for s in make_corpus_specs(4, 0, TINY_SYNTH)]
    cfg = TrainConfig(steps_clip=3, steps_frame=2, batch_size=2, seed=1)
    state = init_trainer(TINY_DIT, TINY_ENC, cfg, samples)
    data = prepare_training_tensors(samples, state.enc_params, TINY_ENC)
    for step in range(cfg.total_steps):
        train_step(state, data, step)
    return state, samples


@pytest.fixture(scope="session")
def criterion_recorder():
    def record(name: str, passed: bool, detail: str = "") -> None:
        line = f"[{'PASS' if passed else 'FAIL'}] {name}" + (f": {detail}" if detail else "")
        _CRITERIA.append(line)
        print("\n" + line)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERIA:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in _CRITERIA:
            terminalreporter.write_line(line)
