"""The tiny encoder, DiT and corpus configs the unit tests share.

Not a test module (pytest collects only `test_*.py`); test files import
it by name, since pytest puts `tests/` on `sys.path`.
"""

from portraitflow.encoders import EncoderConfig
from portraitflow.model import DiTConfig
from portraitflow.synthdata import SynthConfig

TINY_ENC = EncoderConfig(frames=4, height=16, width=16, patch=8,
                         tokens_per_frame=2, samples_per_token=8,
                         audio_width=8, crop_row=0, crop_col=0, crop_size=16,
                         id_feat_width=8)
TINY_DIT = DiTConfig.for_encoders(TINY_ENC, depth=2, width=16, heads=2,
                                  head_dim=8, n_id=2)
TINY_SYNTH = SynthConfig(frames=4, height=16, width=16, envelope_samples=64,
                         identities=4)
