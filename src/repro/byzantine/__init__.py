"""Byzantine attack models.

Attacks come in two flavours:

- *parameter attacks* (:class:`GradientAttack`): a Byzantine client
  replaces the gradient/vector it shares.  The paper's main attack is
  the sign flip; crash, random noise, magnitude inflation and the
  omniscient "opposite of the honest mean" attack (Blanchard et al.)
  are included for the ablation benchmarks.
- *data poisoning* (:class:`LabelFlipAttack`): the Byzantine client's
  labels are permuted before training, so its *honestly computed*
  gradients are misleading.

Every gradient attack can additionally restrict the recipients of its
broadcast (selective omission), which is the extra power the adversary
uses in the Lemma 4.2 non-convergence construction.  Under schedulers
with a nonzero delivery horizon (see :mod:`repro.engine`) attacks may
also shape *when* their messages arrive via :meth:`GradientAttack.
send_delays` — the timing attacks in :mod:`repro.byzantine.timing`
(withhold-then-rush, selective delay) are built on that hook.
"""

from repro.byzantine.base import AttackContext, GradientAttack
from repro.byzantine.sign_flip import SignFlipAttack
from repro.byzantine.crash import CrashAttack
from repro.byzantine.random_noise import GaussianNoiseAttack, RandomVectorAttack
from repro.byzantine.magnitude import MagnitudeAttack
from repro.byzantine.omniscient import OppositeOfMeanAttack
from repro.byzantine.label_flip import LabelFlipAttack, flip_labels
from repro.byzantine.partition import PartitionAttack, TopologyPartition, partition_cut
from repro.byzantine.timing import (
    AdaptiveDelayAttack,
    SelectiveDelayAttack,
    WithholdThenRushAttack,
)
from repro.byzantine.registry import available_attacks, make_attack

__all__ = [
    "AdaptiveDelayAttack",
    "AttackContext",
    "CrashAttack",
    "GaussianNoiseAttack",
    "GradientAttack",
    "LabelFlipAttack",
    "MagnitudeAttack",
    "OppositeOfMeanAttack",
    "PartitionAttack",
    "TopologyPartition",
    "partition_cut",
    "RandomVectorAttack",
    "SelectiveDelayAttack",
    "SignFlipAttack",
    "WithholdThenRushAttack",
    "available_attacks",
    "flip_labels",
    "make_attack",
]
