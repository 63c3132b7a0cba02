"""Counter-based splittable random number generation.

Built on numpy's Philox4x64 bit generator (256-bit counter, keyed) seeded
through SeedSequence.  A stream is identified by the master seed plus a
tuple of split ids; splitting derives a statistically independent child
stream without consuming state from the parent.  Worker-parallel code
derives one stream per fixed-size chunk of work from the chunk index, so
merged output is invariant to how chunks are spread over workers.

`STREAM_VERSION` names which draws a (seed, path) stands for; reports echo
it.  A change that alters what any sampler draws from a given stream bumps
it.  Version 1 is the original sampler set; version 2 builds the stationary
sum in nested (Horner) form.  Version 3 samples each chunk in blocks of at
most 8192 replicas, in order on the chunk's one stream; a thinning stage
makes one parametric draw per offspring family over its entries in index
order, not one per environment group; immigration makes one inversion per
distinct law; and the composed-thinning and unit-progeny samplers draw
environments only for their entries still above zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STREAM_VERSION = 3


@dataclass
class RngState:
    """A Philox-backed generator plus the derivation path that produced it.

    `gen` advances as draws are made; `seq` is immutable and records
    (entropy, spawn_key) so equal paths always rebuild equal streams.
    """

    seq: np.random.SeedSequence
    gen: np.random.Generator = field(repr=False)

    @classmethod
    def from_seed(cls, seed: int) -> "RngState":
        if not 0 <= int(seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
        seq = np.random.SeedSequence(int(seed))
        return cls(seq=seq, gen=np.random.Generator(np.random.Philox(seq)))

    def split(self, stream_id: int) -> "RngState":
        """Derive an independent child stream for `stream_id`.

        Children for distinct ids are independent; the same (seed, path)
        always yields the same stream, regardless of draws made elsewhere.
        """
        if stream_id < 0:
            raise ValueError("stream_id must be nonnegative")
        seq = np.random.SeedSequence(
            entropy=self.seq.entropy,
            spawn_key=tuple(self.seq.spawn_key) + (int(stream_id),),
        )
        return RngState(seq=seq, gen=np.random.Generator(np.random.Philox(seq)))

    def uniform_open(self, size: int | None = None):
        """Uniform draws on (0, 1]: 1 - U with U in [0, 1).

        Inversion samplers need the open-at-zero side: survival functions
        stay positive, so the search for S(x) <= u would never stop at u == 0.
        """
        return 1.0 - self.gen.random(size)
