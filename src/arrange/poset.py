"""Intersection posets of arrangements.

A flat is an irreducible stratum cut out by members of the arrangement.
Flats are ordered by reverse inclusion of supports: the ambient space is
the unique bottom element and deeper strata sit higher.  The poset carries
member incidence, the Mobius function, and the surgery operations
(deletion, restriction) that drive every stalk computation downstream.
Surgery works on local arrangements ``(flats, atoms)``: a bitmask of the
poset's own flat indices and the members' atoms, so a flat keeps one index
through the whole stalk recursion.

An order is validated where it enters: ``from_abstract`` and ``from_dict``
run ``_validate``.  A build needs no check: a linear build orders flats by
containment of member masks, graded since a flat is the intersection of the
members in its mask; a partition lattice by inclusion of pair sets.

Linear builds enumerate flats by breadth-first closure: intersect each
known flat with each member and deduplicate on the member mask, the set of
members containing the result.  A linear flat is the intersection of the
members that contain it, so that mask is its identity.  Each flat keeps an
echelon basis of primitive integer rows, so rank, consistency and member
containment are reductions with ``linalg.reduce_row``; the canonical
reduced row echelon form (``linalg.rref``, read off the same integer
elimination) is computed once per member and once per flat, at the end,
as its key.  This visits only actual flats instead of all 2^s index
subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ArrangeError
from .linalg import RationalMatrix, primitive_rows, reduce_row, rref


class DuplicateMember(ArrangeError):
    pass


class EmptyInput(ArrangeError):
    pass


class InvalidForm(ArrangeError):
    pass


class LastMember(ArrangeError):
    pass


class EmptyRestriction(ArrangeError):
    pass


@dataclass(frozen=True)
class Member:
    """A member of the arrangement; ``atom`` is the flat index of its stratum."""
    label: object
    display: str
    atom: int


@dataclass(frozen=True)
class Flat:
    index: int
    codim: int
    key: object
    display: str


@dataclass
class AdmissibilityReport:
    ok: bool
    violations: list
    note: str = ""


def _bits(mask):
    """Indices of the set bits, increasing; costs one step per set bit."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class IntersectionPoset:
    """Flats of an arrangement ordered by reverse inclusion of supports."""

    def __init__(self, ambient_dim, codim_c, mode, flats, down, member_data):
        self.ambient_dim = ambient_dim
        self.codim_c = codim_c
        self.mode = mode
        self.flats = list(flats)
        self.down = list(down)          # down[i] = bitmask of {j : j <= i}
        bottoms = [f.index for f in self.flats if f.codim == 0]
        if len(bottoms) != 1:
            raise ArrangeError(f"poset needs a unique bottom, found {len(bottoms)}")
        self.bottom = bottoms[0]
        self.members = tuple(Member(label, display, atom)
                             for (label, display, atom) in member_data)
        self._member_mask = self._compute_member_masks()
        self.mobius = self._compute_mobius()

    # ----- construction ---------------------------------------------------

    @classmethod
    def from_linear_forms(cls, forms, ambient_dim, mode="affine"):
        """Build from hyperplane members given as (covector, constant) pairs."""
        systems = [[form] for form in forms]
        return cls.from_linear_systems(systems, ambient_dim, mode, codim_c=1)

    @classmethod
    def from_linear_systems(cls, systems, ambient_dim, mode="affine", codim_c=None):
        """Build from members each defined by a system of (covector, constant) rows.

        In projective mode the covectors are homogeneous coordinates on the
        cone over P^ambient_dim; the poset is the central one with the cone
        apex dropped.
        """
        if not systems:
            raise EmptyInput("no members given")
        ncoords = ambient_dim + 1 if mode == "projective" else ambient_dim
        member_rrefs = []
        for rows in systems:
            aug = []
            for cov, const in rows:
                cov = [Fraction(x) for x in cov]
                if len(cov) != ncoords:
                    raise InvalidForm(
                        f"covector length {len(cov)} != {ncoords} coordinates")
                if not any(cov):
                    raise InvalidForm("zero covector")
                if mode in ("central", "projective") and Fraction(const):
                    raise InvalidForm(f"{mode} mode requires zero constants")
                aug.append(tuple(cov) + (Fraction(const),))
            reduced, pivots = rref(aug)
            if pivots and pivots[-1] == ncoords:
                raise InvalidForm("member system is inconsistent")
            member_rrefs.append(reduced)
        if codim_c is None:
            codim_c = len(member_rrefs[0])
        for reduced in member_rrefs:
            if len(reduced) != codim_c:
                raise InvalidForm(
                    f"member codimension {len(reduced)} != c = {codim_c}")
        if len(set(member_rrefs)) != len(member_rrefs):
            raise DuplicateMember("two members define the same subspace")

        max_codim = ncoords - 1 if mode == "projective" else ncoords
        member_rows = [
            list(primitive_rows(RationalMatrix.from_rows(reduced)).values())
            for reduced in member_rrefs]
        nmembers = len(member_rows)

        # breadth-first closure, frontier order then member order; each flat
        # has its member mask and an integer echelon basis of its rows
        masks = [0]
        bases = [{}]
        index_of = {0: 0}
        frontier = [0]
        while frontier:
            new_frontier = []
            for x in frontier:
                basis, mask_x = bases[x], masks[x]
                # each member's rows modulo x's basis, as echelon rows
                # zero on its pivots, so m2 contains x meet m iff m2's
                # reduced rows reduce to zero against m's alone
                quotient = {}
                for m in range(nmembers):
                    if not mask_x >> m & 1:
                        ech = quotient[m] = {}
                        for row in member_rows[m]:
                            if row := reduce_row(reduce_row(row, basis), ech):
                                ech[min(row)] = row
                children = []
                for m, ech in quotient.items():
                    if any(mask >> m & 1 and rank == len(ech)
                           for mask, rank in children):
                        continue  # x meets m in a flat already met
                    if ncoords in ech:
                        continue  # inconsistent: empty intersection
                    if len(basis) + len(ech) > max_codim:
                        continue  # projective: drop the cone apex
                    mask = mask_x | 1 << m
                    for m2, ech2 in quotient.items():
                        if (m2 != m and len(ech2) <= len(ech) and not any(
                                reduce_row(row, ech) for row in ech2.values())):
                            mask |= 1 << m2
                    children.append((mask, len(ech)))
                    if mask not in index_of:
                        index_of[mask] = len(masks)
                        new_frontier.append(len(masks))
                        masks.append(mask)
                        bases.append({**basis, **ech})
            frontier = new_frontier

        flats = []
        for idx, basis in enumerate(bases):
            key, _ = rref([[row.get(j, 0) for j in range(ncoords + 1)]
                           for row in basis.values()])
            flats.append(Flat(idx, len(key), ("lin", key),
                              f"F{idx}" if key else "ambient"))

        # the order is containment of member masks: j <= i unless a member
        # outside i's mask passes through j
        on = [0] * nmembers
        for i, mask in enumerate(masks):
            for m in _bits(mask):
                on[m] |= 1 << i
        everything = (1 << len(masks)) - 1
        all_members = (1 << nmembers) - 1
        down = []
        for mask in masks:
            off = 0
            for m in _bits(all_members & ~mask):
                off |= on[m]
            down.append(everything & ~off)

        member_data = []
        for m in range(nmembers):
            atom = index_of.get(1 << m)
            if atom is None:
                raise DuplicateMember("nested or repeated members")
            member_data.append((m, f"Z{m + 1}", atom))

        return cls(ambient_dim, codim_c, mode, flats, down, member_data)

    @classmethod
    def partition_lattice(cls, n):
        """Lattice of set partitions of {1..n}; bottom is the discrete partition.

        Codimension is stored in block-deficiency units (n - #blocks); a
        geometric model scales it by the codimension of its diagonal.
        """
        if n < 2:
            raise EmptyInput("partition lattice needs n >= 2")
        partitions = _set_partitions(n)
        partitions.sort(key=lambda p: (n - len(p), p))
        flats = []
        pair_sets = []
        for idx, blocks in enumerate(partitions):
            codim = n - len(blocks)
            display = "|".join("".join(str(x) for x in b) for b in blocks)
            flats.append(Flat(idx, codim, ("part", blocks), display))
            pairs = set()
            for b in blocks:
                for i in range(len(b)):
                    for j in range(i + 1, len(b)):
                        pairs.add((b[i], b[j]))
            pair_sets.append(frozenset(pairs))
        down = []
        for i in range(len(partitions)):
            mask = 0
            for j in range(len(partitions)):
                if pair_sets[j] <= pair_sets[i]:
                    mask |= 1 << j
            down.append(mask)
        atoms = {}
        for idx in range(len(partitions)):
            if len(pair_sets[idx]) == 1:
                atoms[next(iter(pair_sets[idx]))] = idx
        member_data = [(("pair", i, j), f"D{i}{j}", atoms[(i, j)])
                       for (i, j) in sorted(atoms)]
        return cls(n, 1, "partition", flats, down, member_data)

    @classmethod
    def from_abstract(cls, flat_specs, order_pairs, codim_c, ambient_dim=None):
        """Build from user-supplied combinatorics.

        ``flat_specs`` is a list of (key, codim) for the proper flats; the
        bottom is added automatically.  ``order_pairs`` lists (a, b) meaning
        flat a's support contains flat b's (a below b); the transitive
        closure is taken here.
        """
        if not flat_specs:
            raise EmptyInput("no flats given")
        keys = [key for key, _ in flat_specs]
        if len(set(keys)) != len(keys):
            raise ArrangeError("duplicate abstract flat keys")
        if ambient_dim is None:
            ambient_dim = max(codim for _, codim in flat_specs)
        flats = [Flat(0, 0, ("abs", "bottom"), "ambient")]
        index_of = {}
        for key, codim in flat_specs:
            if codim <= 0:
                raise ArrangeError(f"abstract flat {key!r} must have codim >= 1")
            idx = len(flats)
            index_of[key] = idx
            flats.append(Flat(idx, int(codim), ("abs", str(key)), str(key)))
        n = len(flats)
        down = [(1 << i) | 1 for i in range(n)]  # reflexive + bottom below all
        down[0] = 1
        for a, b in order_pairs:
            if a not in index_of or b not in index_of:
                raise ArrangeError(f"order pair ({a!r}, {b!r}) names unknown flats")
            down[index_of[b]] |= 1 << index_of[a]
        # transitive closure
        changed = True
        while changed:
            changed = False
            for i in range(n):
                acc = down[i]
                for j in _bits(down[i]):
                    acc |= down[j]
                if acc != down[i]:
                    down[i] = acc
                    changed = True
        member_data = []
        for f in flats:
            if f.codim == codim_c:
                member_data.append((f.key[1], f.display, f.index))
        if not member_data:
            raise ArrangeError(f"no members: no flats of codim {codim_c}")
        for f in flats:
            if f.index == 0:
                continue
            if not any(down[f.index] >> atom & 1 for _, _, atom in member_data):
                raise ArrangeError(
                    f"flat {f.display} lies on no member of codim {codim_c}")
        poset = cls(ambient_dim, codim_c, "abstract", flats, down, member_data)
        poset._validate()
        return poset

    # ----- invariants ------------------------------------------------------

    def _compute_member_masks(self):
        masks = []
        for f in self.flats:
            mask = 0
            for m, mem in enumerate(self.members):
                if self.down[f.index] >> mem.atom & 1:
                    mask |= 1 << m
            masks.append(mask)
        return masks

    @cached_property
    def up(self):
        """up[j] = bitmask of {i : j <= i}; built on first surgery."""
        up = [0] * len(self.flats)
        for i, mask in enumerate(self.down):
            for j in _bits(mask):
                up[j] |= 1 << i
        return up

    def _compute_mobius(self):
        mob = [0] * len(self.flats)
        for idx in sorted(range(len(self.flats)), key=lambda i: self.flats[i].codim):
            if idx == self.bottom:
                mob[idx] = 1
            else:
                mob[idx] = -sum(mob[j] for j in _bits(self.down[idx]) if j != idx)
        return mob

    def _validate(self):
        """Check that the order is a graded partial order with the bottom
        below every flat; each failure names the flats involved.  Only
        ``from_abstract`` and ``from_dict`` call it: their orders come from
        a document or a cache file."""
        n = len(self.flats)
        for i, f in enumerate(self.flats):
            if f.index != i:
                raise ArrangeError("flat indices out of order")
            if not self.down[i] >> i & 1:
                raise ArrangeError(f"order not reflexive at {f.display}")
            if not self.down[i] & (1 << self.bottom):
                raise ArrangeError(f"bottom {self.flats[self.bottom].display} "
                                   f"not below {f.display}")
            for j in _bits(self.down[i]):
                if j != i and self.flats[j].codim >= f.codim:
                    g = self.flats[j]
                    raise ArrangeError(
                        f"order not graded by codimension: {g.display} "
                        f"(codim {g.codim}) <= {f.display} (codim {f.codim})")
                if missing := self.down[j] & ~self.down[i]:
                    g, k = self.flats[j], self.flats[next(_bits(missing))]
                    raise ArrangeError(
                        f"order not transitive: {k.display} <= {g.display} "
                        f"<= {f.display} but not {k.display} <= {f.display}")
        keys = {f.key for f in self.flats}
        if len(keys) != n:
            raise ArrangeError("duplicate canonical keys")
        for mem in self.members:
            if self.flats[mem.atom].codim != self.codim_c:
                raise ArrangeError(
                    f"member {mem.display} stratum has codim "
                    f"{self.flats[mem.atom].codim}, expected {self.codim_c}")

    # ----- queries ----------------------------------------------------------

    def __len__(self):
        return len(self.flats)

    def le(self, i, j):
        """True when flat i's support contains flat j's (i at most as deep)."""
        return bool(self.down[j] >> i & 1)

    def member_mask(self, i):
        return self._member_mask[i]

    def mu(self, i):
        return self.mobius[i]

    def covers(self):
        """Sorted pairs (i, j) with j covering i: i below j and no flat
        strictly between."""
        pairs = []
        for j in range(len(self.flats)):
            below = self.down[j] & ~(1 << j)
            between = 0
            for k in _bits(below):
                between |= self.down[k] & ~(1 << k)
            pairs.extend((i, j) for i in _bits(below & ~between))
        return sorted(pairs)

    def proper_flats(self):
        return [f for f in self.flats if f.index != self.bottom]

    def content_key(self, flats, atoms):
        """Memo key of ``(flats, atoms)``: the flat mask and the atom mask."""
        return flats, sum(1 << a for a in atoms)

    def check_admissible(self):
        violations = [f.index for f in self.flats if f.codim % self.codim_c]
        note = ""
        if self.mode == "abstract":
            note = ("abstract input: smoothness and irreducibility of the "
                    "declared strata are trusted, not verified")
        return AdmissibilityReport(not violations, violations, note)

    # ----- surgery ----------------------------------------------------------

    def local_arrangement(self, x):
        """Flats below x and the members through x, in member order."""
        flats = self.down[x]
        return flats, tuple(m.atom for m in self.members if flats >> m.atom & 1)

    def delete_member(self, flats, atoms, pos):
        """The local arrangement without its member at ``pos``: a flat
        survives iff no strictly shallower flat lies on all its other
        members, i.e. it is still an intersection of the remaining ones."""
        rest = atoms[:pos] + atoms[pos + 1:]
        rest_mask = sum(1 << a for a in rest)
        kept = 0
        for f in _bits(flats):
            shallower = flats & self.down[f] & ~(1 << f)
            for a in _bits(rest_mask & self.down[f]):
                shallower &= self.up[a]
            if not shallower:
                kept |= 1 << f
        return kept, rest

    def restrict_to_member(self, flats, atoms, pos):
        """The local arrangement traced on its member at ``pos``: the flats
        above its atom; the new members, by increasing index, are the minimal
        ones (the deduplicated components of the pairwise intersections)."""
        a = atoms[pos]
        kept = flats & self.up[a]
        proper = kept & ~(1 << a)
        if not proper:
            raise EmptyRestriction(f"no other member meets {self.flats[a].display}")
        return kept, tuple(i for i in _bits(proper)
                           if not self.down[i] & proper & ~(1 << i))

    def _sub_poset(self, flats, atoms):
        """Standalone poset of ``(flats, atoms)``, codimensions measured from
        its bottom; a member not of this poset is labelled by its flat key."""
        keep = list(_bits(flats))
        remap = {old: new for new, old in enumerate(keep)}
        shift = min(self.flats[old].codim for old in keep)
        sub_flats = [Flat(new, f.codim - shift, f.key, f.display)
                     for new, f in enumerate(self.flats[old] for old in keep)]
        down = [sum(1 << remap[j] for j in _bits(self.down[old] & flats))
                for old in keep]
        labels = {m.atom: (m.label, m.display) for m in self.members}
        member_data = [labels.get(a, (self.flats[a].key, self.flats[a].display))
                       + (remap[a],) for a in atoms]
        return IntersectionPoset(
            self.ambient_dim - shift, self.codim_c, self.mode,
            sub_flats, down, member_data)

    def _whole(self, member_pos):
        """Every flat and member, and ``member_pos`` once checked."""
        if not 0 <= member_pos < len(self.members):
            raise ArrangeError(f"no member at position {member_pos}")
        return ((1 << len(self.flats)) - 1,
                tuple(m.atom for m in self.members), member_pos)

    def deletion(self, member_pos):
        """Poset of the arrangement with one member removed."""
        if len(self.members) <= 1:
            raise LastMember("cannot delete the only member")
        return self._sub_poset(*self.delete_member(*self._whole(member_pos)))

    def restriction(self, member_pos):
        """Arrangement traced on one member, codimensions measured inside."""
        return self._sub_poset(*self.restrict_to_member(*self._whole(member_pos)))

    def scale_codims(self, factor):
        """Multiply every codimension by a constant (diagonal models)."""
        if factor < 1:
            raise ArrangeError("scale factor must be >= 1")
        flats = [Flat(f.index, f.codim * factor, f.key, f.display)
                 for f in self.flats]
        member_data = [(m.label, m.display, m.atom) for m in self.members]
        return IntersectionPoset(
            self.ambient_dim * factor, self.codim_c * factor, self.mode,
            flats, self.down, member_data)

    # ----- serialization ----------------------------------------------------

    def to_dict(self):
        return {
            "ambient_dim": self.ambient_dim,
            "codim_c": self.codim_c,
            "mode": self.mode,
            "flats": [{"codim": f.codim, "key": _obj_to_json(f.key),
                       "display": f.display} for f in self.flats],
            "down": [str(m) for m in self.down],
            "members": [{"label": _obj_to_json(m.label), "display": m.display,
                         "atom": m.atom} for m in self.members],
        }

    @classmethod
    def from_dict(cls, data):
        flats = [Flat(i, fd["codim"], _obj_from_json(fd["key"]), fd["display"])
                 for i, fd in enumerate(data["flats"])]
        down = [int(m) for m in data["down"]]
        if len(down) != len(flats) or any(m < 0 or m >> len(flats) for m in down):
            raise ArrangeError("stored order names a flat index out of range")
        member_data = [(_obj_from_json(md["label"]), md["display"], md["atom"])
                       for md in data["members"]]
        if any(not 0 <= atom < len(flats) for *_, atom in member_data):
            raise ArrangeError("stored member atom is out of range")
        poset = cls(data["ambient_dim"], data["codim_c"], data["mode"],
                    flats, down, member_data)
        poset._validate()
        return poset

    def __repr__(self):
        return (f"IntersectionPoset({self.mode}, dim={self.ambient_dim}, "
                f"c={self.codim_c}, flats={len(self.flats)}, "
                f"members={len(self.members)})")


def _set_partitions(n):
    """All set partitions of {1..n} as sorted tuples of sorted tuples."""
    out = []

    def rec(k, blocks):
        if k > n:
            out.append(tuple(sorted(tuple(b) for b in blocks)))
            return
        for b in blocks:
            b.append(k)
            rec(k + 1, blocks)
            b.pop()
        blocks.append([k])
        rec(k + 1, blocks)
        blocks.pop()

    rec(1, [])
    return out


# JSON codecs for the heterogeneous keys/labels used above.

def _obj_to_json(obj):
    if isinstance(obj, Fraction):
        return {"frac": str(obj)}
    if isinstance(obj, tuple):
        return {"tuple": [_obj_to_json(x) for x in obj]}
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    raise ArrangeError(f"cannot serialize {type(obj).__name__}")


def _obj_from_json(data):
    if isinstance(data, dict):
        if "frac" in data:
            return Fraction(data["frac"])
        if "tuple" in data:
            return tuple(_obj_from_json(x) for x in data["tuple"])
        raise ArrangeError(f"cannot deserialize {data!r}")
    return data
