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
run ``_validate``.  A build needs no check: its order is the containment of
member masks, graded since a flat is the intersection of the members in
its mask; a partition's members are the pairs it merges.

Linear builds enumerate flats by breadth-first closure over flats named by
their member mask, the members containing them.  Members enter as
primitive integer rows; each flat x keeps an echelon basis of such rows
and reduces each member off it once (``_meet``): fully reduced with
positive pivots, the rows left are x meet the member off x's pivots, so
members with equal rows meet x in one flat and give its mask together.
The meets with the bottom's empty basis key the members themselves.
The order is read off these meets, each flat passing its down-set on to
the flats it meets members in; a partition lattice runs
``_containment_order`` instead.  A flat's key is the reduced form of its
echelon basis (``linalg.Echelon.reduced``), written once, at the end, with
equal rows and entries shared among the flats.

Every build is bounded: the closure and the partition enumeration stop with
``TooManyFlats`` once they have made more than ``MAX_FLATS`` flats, so a
model too large to handle costs at most that many flats before it is
refused.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import ArrangeError
# rref is not called here; benchmark/tracer.py counts calls to this name
from .linalg import Echelon, primitive, reduce_row, row_key, rref  # noqa: F401
from .records import Frozen, Record

# Most flats one build may make before it stops with TooManyFlats: 9 points
# give Bell(9) = 21,147 partitions and build, 10 give 115,975 and do not.
MAX_FLATS = 100_000


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


class TooManyFlats(ArrangeError):
    """A build made more than ``MAX_FLATS`` flats and stopped."""

    def __init__(self, what):
        super().__init__(f"{what} has more than {MAX_FLATS:,} flats, the "
                         f"limit of one build (poset.MAX_FLATS)")


class Member(Frozen):
    """A member of the arrangement; ``atom`` is the flat index of its stratum."""
    __slots__ = ("label", "display", "atom")

    def __init__(self, label, display, atom):
        init = object.__setattr__
        init(self, "label", label)
        init(self, "display", display)
        init(self, "atom", atom)


class Flat(Frozen):
    __slots__ = ("index", "codim", "key", "display")

    def __init__(self, index, codim, key, display):
        init = object.__setattr__
        init(self, "index", index)
        init(self, "codim", codim)
        init(self, "key", key)
        init(self, "display", display)


class AdmissibilityReport(Record):
    __slots__ = ("ok", "violations", "note")

    def __init__(self, ok, violations, note=""):
        self.ok = ok
        self.violations = violations
        self.note = note


def _meet(rows, basis, cols):
    """Primitive integer ``rows`` modulo the echelon ``basis``: the echelon
    rows left, zero on its pivots, and their span's key (``row_key``s)."""
    ech = {}
    for row in rows:
        row = reduce_row(row, basis)
        if row := reduce_row(row, ech) if ech else row:
            ech[min(row)] = row
    return ech, (row_key(*ech.items()) if len(ech) == 1 else frozenset(
        map(row_key, Echelon(cols, ech)._fully_reduced().items())))


def _bits(mask):
    """Indices of the set bits, increasing; costs one step per set bit."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class IntersectionPoset:
    """Flats of an arrangement ordered by reverse inclusion of supports."""

    def __init__(self, ambient_dim, codim_c, mode, flats, down, member_data,
                 member_masks):
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
        self._member_mask = list(member_masks)   # bit m: member m through i
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
        meets = []   # each member's (echelon rows, span key)
        for rows in systems:
            ints = []
            for cov, const in rows:
                row = (*map(Fraction, cov), Fraction(const))
                if len(row) != ncoords + 1:
                    raise InvalidForm(
                        f"covector length {len(row) - 1} != {ncoords} coordinates")
                if not any(row[:-1]):
                    raise InvalidForm("zero covector")
                if mode in ("central", "projective") and row[-1]:
                    raise InvalidForm(f"{mode} mode requires zero constants")
                ints.append(primitive({j: v for j, v in enumerate(row) if v}))
            ech, key = _meet(ints, {}, ncoords + 1)
            if ncoords in ech:
                raise InvalidForm("member system is inconsistent")
            codim_c = len(ech) if codim_c is None else codim_c
            if len(ech) != codim_c:
                raise InvalidForm(f"member codimension {len(ech)} != c = {codim_c}")
            meets.append((ech, key))
        first = {}   # span key -> the first member with it
        for m, (_, key) in enumerate(meets):
            if (m0 := first.setdefault(key, m)) != m:
                raise DuplicateMember(f"members Z{m0 + 1} and Z{m + 1} coincide")

        max_codim = ncoords - 1 if mode == "projective" else ncoords

        # breadth-first closure, frontier order then member order; bases[x]
        # holds (pivot, row) pairs, kids[x] the flats x meets members in
        masks = [0]
        bases = [()]
        kids = []
        index_of = {0: 0}
        frontier = [0]
        while frontier:
            new_frontier = []
            for x in frontier:
                basis, mask_x = dict(bases[x]), masks[x]
                groups = {}   # the flat x meets a member in -> [rows, members]
                for m, own in enumerate(meets) if len(basis) < max_codim else ():
                    if not mask_x >> m & 1:
                        # the bottom meets each member in its own rows
                        ech, key = (_meet(own[0].values(), basis, ncoords + 1)
                                    if basis else own)
                        groups.setdefault(key, [ech, 0])[1] |= 1 << m
                kids.append(children := [])
                for ech, members in groups.values():
                    if ncoords in ech or len(basis) + len(ech) > max_codim:
                        continue  # an empty meet, or the cone apex
                    mask = mask_x | members
                    # c >= 2: a shorter quotient inside this one joins it
                    for ech2, members2 in groups.values() if len(ech) > 1 else ():
                        if len(ech2) < len(ech) and not any(
                                reduce_row(row, ech) for row in ech2.values()):
                            mask |= members2
                    if (child := index_of.get(mask)) is None:
                        child = index_of[mask] = len(masks)
                        new_frontier.append(child)
                        masks.append(mask)
                        bases.append(bases[x] + tuple(ech.items()))
                        if len(masks) > MAX_FLATS:
                            raise TooManyFlats(f"{mode} linear arrangement "
                                               f"of {len(meets)} members")
                    children.append(child)
            frontier = new_frontier

        # by codimension, so down[x] is whole before x passes it on
        down = [1 << i for i in range(len(masks))]
        for x in sorted(range(len(masks)), key=lambda i: len(bases[i])):
            for child in kids[x]:
                down[child] |= down[x]

        flats = []
        shared = {}   # one object per distinct key row and key entry
        for idx, basis in enumerate(bases):
            key, _ = Echelon(ncoords + 1, dict(basis)).reduced(shared)
            flats.append(Flat(idx, len(key), ("lin", key),
                              f"F{idx}" if key else "ambient"))

        atoms = [index_of.get(1 << m) for m in range(len(meets))]
        if None in atoms:
            # repeated members are refused above, so only the apex is left
            raise DuplicateMember(f"Z{atoms.index(None) + 1} is the cone apex")
        member_data = [(m, f"Z{m + 1}", atom) for m, atom in enumerate(atoms)]

        return cls(ambient_dim, codim_c, mode, flats, down, member_data, masks)

    @classmethod
    def partition_lattice(cls, n, codim_c=1):
        """Lattice of set partitions of {1..n}; bottom is the discrete partition.

        Each merged pair i < j is a member, in lexicographic order, and a
        partition's member mask holds the pairs it merges.  A flat of
        ``n - #blocks`` merges has codimension ``codim_c`` times that, in an
        ambient space of dimension ``n * codim_c``.
        """
        if n < 2:
            raise EmptyInput("partition lattice needs n >= 2")
        if codim_c < 1:
            raise ArrangeError("diagonal codimension must be >= 1")
        partitions = _set_partitions(n)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        pair_bit = {pair: 1 << m for m, pair in enumerate(pairs)}
        partitions.sort(key=lambda p: (n - len(p), p))
        flats = []
        masks = []
        for idx, blocks in enumerate(partitions):
            display = "|".join("".join(str(x) for x in b) for b in blocks)
            flats.append(Flat(idx, codim_c * (n - len(blocks)),
                              ("part", blocks), display))
            masks.append(sum(pair_bit[i, j] for b in blocks
                             for k, i in enumerate(b) for j in b[k + 1:]))
        index_of = {mask: idx for idx, mask in enumerate(masks)}
        member_data = [(("pair", i, j), f"D{i}{j}", index_of[1 << m])
                       for m, (i, j) in enumerate(pairs)]
        return cls(n * codim_c, codim_c, "partition", flats,
                   _containment_order(masks, len(pairs)), member_data, masks)

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
        poset = cls(ambient_dim, codim_c, "abstract", flats, down, member_data,
                    _member_masks(down, member_data))
        poset._validate()
        return poset

    # ----- invariants ------------------------------------------------------

    @cached_property
    def up(self):
        """up[j] = bitmask of {i : j <= i}; built on first use, by the
        first surgery or by the pointwise check."""
        up = [0] * len(self.flats)
        for i, mask in enumerate(self.down):
            for j in _bits(mask):
                up[j] |= 1 << i
        return up

    def _compute_mobius(self):
        """mu(i) = -(sum of mu below i), by codimension: the flats below i
        are counted in one mask per value of mu so far, which lacks i."""
        mob = [0] * len(self.flats)
        having = {}   # value of mu -> mask of the flats with it
        for idx in sorted(range(len(self.flats)), key=lambda i: self.flats[i].codim):
            mob[idx] = mu = 1 if idx == self.bottom else -sum(
                v * (self.down[idx] & m).bit_count() for v, m in having.items())
            having[mu] = having.get(mu, 0) | 1 << idx
        return mob

    def _validate(self):
        """Check that the order is a graded partial order with the bottom
        below every flat; each failure names the flats involved.  Only
        ``from_abstract`` and ``from_dict`` call it: their orders are read
        from a document, not built."""
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

    @cached_property
    def _layers(self):
        """(codimension, mask of the flats that have it), deepest first."""
        layers = {}
        for f in self.flats:
            layers[f.codim] = layers.get(f.codim, 0) | 1 << f.index
        return sorted(layers.items(), reverse=True)

    def lower_covers(self, j):
        """Mask of the flats that j covers: below j, none strictly between.

        The flats below j are taken one codimension layer at a time,
        deepest first.  What is left of a layer lies below no deeper flat
        below j, so it is a cover, and the flats below it are not.  On a
        graded build the first layer holds every cover and the walk ends
        there; on an abstract poset a cover may sit several codimensions
        shallower."""
        rest = self.down[j] & ~(1 << j)
        codim, covers = self.flats[j].codim, 0
        for k, layer in self._layers:
            if not rest:
                break
            if k < codim and (found := rest & layer):
                covers |= found
                for i in _bits(found):
                    rest &= ~self.down[i]
        return covers

    def proper_flats(self):
        return [f for f in self.flats if f.index != self.bottom]

    def position_masks(self, flats, atoms):
        """The shape of the local arrangement ``(flats, atoms)``: for each
        flat, the mask of the positions i with ``atoms[i]`` below it.  One
        step per (atom, flat above it) incidence.  None on an abstract
        poset: its order is declared, not built as the containment of
        member masks, so its shape need not determine its order."""
        if self.mode == "abstract":
            return None
        masks = dict.fromkeys(_bits(flats), 0)
        for i, a in enumerate(atoms):
            for f in _bits(self.up[a] & flats):
                masks[f] |= 1 << i
        return masks

    def content_key(self, flats, atoms, masks=None):
        """Memo key of the local arrangement ``(flats, atoms)``.

        With its position masks ``masks`` (see ``position_masks``), the key
        is its shape: the number of atoms and the sorted tuple of masks.
        In a built poset the flats through a point are subspaces closed
        under intersection, and so are those of every local arrangement the
        recursion makes from them.  When no two flats share a mask, each
        flat is then the intersection of the atoms below it, and the order
        is the containment of the masks.  Two arrangements with one shape
        are isomorphic, position i to position i, and have one stalk.
        Without masks, or when two flats share one, the key is the flat
        mask and the atom mask."""
        if masks is not None:
            shape = sorted(set(masks.values()))
            if len(shape) == len(masks):
                return len(atoms), tuple(shape)
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

    def local_position_masks(self, x):
        """``position_masks(*local_arrangement(x))``, read off the member
        masks: member m is at the position of its bit among x's member bits.
        One shift per run of consecutive bits in x's member mask, per flat."""
        if self.mode == "abstract":
            return None
        flats = list(_bits(self.down[x]))
        rows = [self._member_mask[f] for f in flats]
        shape = [0] * len(flats)
        rest, at = self._member_mask[x], 0
        while rest:
            low = (rest & -rest).bit_length() - 1
            width = (rest >> low ^ (rest >> low) + 1).bit_length() - 1
            ones = (1 << width) - 1
            shape = [s | (r >> low & ones) << at for s, r in zip(shape, rows)]
            rest &= ~(ones << low)
            at += width
        return dict(zip(flats, shape))

    def delete_member(self, flats, atoms, pos):
        """The local arrangement without its member at ``pos``: a flat
        survives iff no strictly shallower flat lies on all its other
        members, i.e. it is still an intersection of the remaining ones.

        Write R_f for the remaining members below f.  When g < f, R_g is a
        subset of R_f because ``down`` is transitive, so g lies on all of
        R_f exactly when R_g = R_f.  The flats are therefore grouped by R_f
        and f survives iff no other flat of its group lies below it.  This
        needs only a transitive ``down``, not a lattice."""
        rest = atoms[:pos] + atoms[pos + 1:]
        rest_mask = sum(1 << a for a in rest)
        down = self.down
        groups = {}
        for f in _bits(flats):
            groups.setdefault(down[f] & rest_mask, []).append(f)
        kept = 0
        for group in groups.values():
            if len(group) == 1:
                kept |= 1 << group[0]
                continue
            mask = sum(1 << f for f in group)
            for f in group:
                if not down[f] & mask & ~(1 << f):
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
            sub_flats, down, member_data, _member_masks(down, member_data))

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

    # ----- serialization ----------------------------------------------------
    # no path of the package calls these; the tests and benchmark/tracer.py do

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
                    flats, down, member_data, _member_masks(down, member_data))
        poset._validate()
        return poset

    def __repr__(self):
        return (f"IntersectionPoset({self.mode}, dim={self.ambient_dim}, "
                f"c={self.codim_c}, flats={len(self.flats)}, "
                f"members={len(self.members)})")


def _containment_order(masks, nmembers):
    """down[i] for flats given by member masks: j <= i unless a member
    outside i's mask passes through j."""
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
    return down


def _member_masks(down, member_data):
    """Each flat's member mask read off an order: member m passes through
    flat i when its atom lies below i."""
    atoms = [atom for *_, atom in member_data]
    return [sum(1 << m for m, atom in enumerate(atoms) if below >> atom & 1)
            for below in down]


def _set_partitions(n):
    """All set partitions of {1..n} as tuples of increasing blocks, ordered
    by their least points.

    Partitions of {1..k} are grown from those of {1..k-1}, so each count on
    the way is also a count of flats: a partition of {1..k} with singletons
    k+1..n added is one of {1..n}.  The growth stops with ``TooManyFlats``
    once it has made more than ``MAX_FLATS`` partitions of one size: at the
    default budget that happens by size 10 (Bell(10) = 115,975), whatever n
    is.
    """
    level = [()]
    for k in range(1, n + 1):
        grown = []
        for blocks in level:
            # k joins one of the blocks, or the empty block past the last
            for i, block in enumerate(blocks + ((),)):
                grown.append(blocks[:i] + (block + (k,),) + blocks[i + 1:])
                if len(grown) > MAX_FLATS:
                    raise TooManyFlats(f"partition lattice of {n} points")
        level = grown
    return level


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
