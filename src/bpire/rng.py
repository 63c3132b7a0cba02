"""Splittable random number generation.

Built on numpy's SFC64 bit generator seeded through SeedSequence.  A stream
is identified by the master seed plus a tuple of split ids; splitting
derives a statistically independent child stream from SeedSequence spawn
keys, numpy's way of seeding parallel streams for any bit generator, without
consuming state from the parent.  Worker-parallel code derives one stream
per fixed-size chunk of work from the chunk index, so merged output is
invariant to how chunks are spread over workers.

`STREAM_VERSION` names which draws a (seed, path) stands for; reports echo
it.  A change that alters what any sampler draws from a given stream bumps
it.  Version 1 is the original sampler set; version 2 builds the stationary
sum in nested (Horner) form.  Version 3 samples each chunk in blocks of at
most 8192 replicas, in order on the chunk's one stream; a thinning stage
makes one parametric draw per offspring family over its entries in index
order, not one per environment group; immigration makes one inversion per
distinct law; and the composed-thinning and unit-progeny samplers draw
environments only for their entries still above zero.  Version 4 makes the
same draws as version 3 from SFC64 instead of Philox, whose counter bpire
never used; SFC64 draws uniforms and Poisson variates faster.  Version 5
thins atomic environments through alias tables, one uniform per entry, zeros
included, with numpy's draw only for populations past a law's tables; and a
dpareto survival with a log power multiplies by c last.

Version 6 draws each environment only as finely as the step reads it.  The
atoms that share an immigration law form one group; a generation step draws,
in order: one uniform per replica for its group, only where the spec has two
or more groups; one alias uniform per replica for thinning, from the tables
of the group's offspring mixture; one uniform per entry past the tables whose
group has several atoms, in index order, to resolve its atom, then numpy's
draw per offspring family as before; and one inversion per distinct
immigration law.  The perpetuity resolves every draw's atom, one uniform per
draw in a group of several atoms, after its immigration.  A binomial law with
p > 1/2 builds its table rows down from p^N, so more of its rows are
tabulated.  The continuous mode draws as in version 5.

Version 7 draws an atomic generation step T(x) + B from one table per
immigration group, the x-fold offspring mixture convolved with the group's
immigration pmf.  A step draws, in order: one uniform per replica for its
group, only where the spec has two or more groups; one uniform per replica
for the step table; then, for the entries left unfinished (populations past
the group's rows, and draws in the tail cell B >= 128), in index order, the
thinning stage of version 6 (alias uniforms, atom resolution and numpy's
draws) and one immigration uniform each, inverted per group in group order.
The grey sampler draws N first and then takes one step from it.  The
continuous mode, the perpetuity, and the lemma1, corollary and decay
samplers draw as in version 6.

Version 8 steps all the replicas of a stationary chunk together: its
sampler draws the whole chunk in one call, not one call per block of 8192.
A generation step over more than 8192 replicas draws, in order: for each
slice of 8192 (the last partial), that slice's group uniforms, where the
spec has two or more groups, and its step uniforms; then, for the entries
left unfinished in the whole batch, in index order, the thinning stage and
one immigration uniform each, as in version 7.  The continuous mode draws,
thins and immigrates slice by slice.  A step over at most 8192 replicas, and
so every sampler other than the stationary one, draws as in version 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STREAM_VERSION = 8


@dataclass
class RngState:
    """An SFC64-backed generator plus the derivation path that produced it.

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
        return cls(seq=seq, gen=np.random.Generator(np.random.SFC64(seq)))

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
        return RngState(seq=seq, gen=np.random.Generator(np.random.SFC64(seq)))

    def uniform_open(self, size: int) -> np.ndarray:
        """`size` uniform draws on (0, 1]: 1 - U, U in [0, 1), in U's array.

        Inversion samplers need the open-at-zero side: survival functions
        stay positive, so the search for S(x) <= u would never stop at u == 0.
        """
        u = self.gen.random(size)
        return np.subtract(1.0, u, out=u)
