"""Architecture description: parsing, validation and overrides.

A platform is one flat JSON file with three sections:

    clock_domains:  name -> {frequency_hz}
    components:     path -> {kind, domain, params}
    bindings:       [[master_path.port, slave_path.port], ...]

parse() normalises and checks a description before anything is built,
and returns it as the plain dict that the file would hold, every default
filled in: {"name", "clock_domains", "components", "bindings"}, with each
binding a [master, slave] list, so that parse(serialize(d)) == d.
Each component's params go through component.fill_params(), the one
parameter validator, which checks every value's type and the range its
PARAMS entry declares; Component.__init__ runs it again for every
instance, so the children a composite adds at build time get the same
checks.  Nested parameter groups (dict params with a dict default) are
completed from their defaults and reject unknown keys; their values are
checked when the children built from them are.  So a bad top-level value
is refused by parse() and apply_overrides(), and a bad group value by
build().  Router mappings are resolved by
interconnect.resolve_mappings() and checked by check_overlaps(), and
explicit base/size strings such as "0x1000" are stored as ints.

A mapping is either {"target": path} alone or exactly base, size and port.
A target mapping stays in the descriptor as written: the builder resolves it again when
it builds the platform, so an override of the target's base/size moves
the mapping, and binds the port to the target's input.  Every parameter
can be overridden from the command line as `path.key=value`, and every
clock frequency as `clock_domains.<name>.frequency_hz=<Hz>`, which is what
makes design-space sweeps possible without editing files.
"""

import copy
import json

from .component import COMPONENT_KINDS, as_int, fill_params
from .engine import PS_PER_SEC
from .errors import ConfigError
from .interconnect import check_overlaps, resolve_mappings


def _clock_domain(name, entry):
    """The checked entry of clock domain `name`: a positive frequency
    whose period is a whole number of picoseconds, and no other key."""
    where = "clock_domains.%s" % name
    if not isinstance(entry, dict):
        raise ConfigError("%s: expected object" % where)
    freq = as_int(entry.get("frequency_hz", 0), where + ".frequency_hz")
    if freq <= 0:
        raise ConfigError("%s: frequency_hz must be positive" % where)
    if PS_PER_SEC % freq != 0:
        raise ConfigError(
            "%s: frequency %d Hz has a non-integral period of %.6f ps" % (
                where, freq, PS_PER_SEC / freq))
    unknown = set(entry) - {"frequency_hz"}
    if unknown:
        raise ConfigError("%s: unknown keys %s" % (where, sorted(unknown)))
    return {"frequency_hz": freq}


def parse(json_text):
    """Parse and validate a platform description; returns it as the dict
    the file holds, with every default filled in (module docstring)."""
    try:
        raw = json.loads(json_text)
    except json.JSONDecodeError as e:
        raise ConfigError("invalid JSON: %s" % e) from None
    if not isinstance(raw, dict):
        raise ConfigError("top level must be an object")
    known = {"name", "clock_domains", "components", "bindings"}
    extra = set(raw) - known
    if extra:
        raise ConfigError("unknown top-level keys: %s" % sorted(extra))

    for key, kind, noun in (("name", str, "string"), ("clock_domains", dict, "object"),
                            ("components", dict, "object"), ("bindings", list, "array")):
        if raw.get(key) is not None and not isinstance(raw[key], kind):
            raise ConfigError("%s: expected %s, got %r" % (key, noun, raw[key]))
    domains = {name: _clock_domain(name, entry)
               for name, entry in (raw.get("clock_domains") or {}).items()}
    if not domains:
        raise ConfigError("clock_domains: at least one domain is required")

    components = {}
    for path, entry in (raw.get("components") or {}).items():
        where = "components.%s" % path
        if not isinstance(entry, dict):
            raise ConfigError("%s: expected object" % where)
        kind = entry.get("kind")
        if not isinstance(kind, str) or kind not in COMPONENT_KINDS:
            raise ConfigError("%s: unknown component kind %r (known: %s)" % (
                where, kind, ", ".join(sorted(COMPONENT_KINDS))))
        domain = entry.get("domain")
        if not isinstance(domain, str) or domain not in domains:
            raise ConfigError("%s: unknown clock domain %r" % (where, domain))
        unknown = set(entry) - {"kind", "domain", "params"}
        if unknown:
            raise ConfigError("%s: unknown keys %s" % (where, sorted(unknown)))
        params = fill_params(COMPONENT_KINDS[kind], path, entry.get("params"))
        components[path] = {"kind": kind, "domain": domain, "params": params}

    for path, entry in components.items():
        if entry["kind"] == "router":
            params = entry["params"]
            ranges = resolve_mappings(path, params["mappings"], components)
            check_overlaps(path, ranges)
            params["mappings"] = [m if "target" in m else dict(m, base=base, size=size)
                                  for m, (base, size, _) in zip(params["mappings"], ranges)]

    bindings = []
    for i, pair in enumerate(raw.get("bindings") or []):
        where = "bindings[%d]" % i
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError("%s: expected [master, slave]" % where)
        for end in pair:
            if not isinstance(end, str):
                raise ConfigError("%s: expected a 'component.port' string, got %r" % (where, end))
            comp = end.rsplit(".", 1)[0]
            if comp not in components:
                raise ConfigError("%s: '%s' names unknown component '%s'" % (
                    where, end, comp))
        bindings.append([pair[0], pair[1]])

    return {"name": raw.get("name") or "", "clock_domains": domains,
            "components": components, "bindings": bindings}


def serialize(descriptor):
    """Canonical JSON text for a descriptor; parse() inverts it exactly."""
    return json.dumps(descriptor, indent=2) + "\n"


def parse_override_value(text):
    """Parse the value side of an override: JSON first, 0x hex, else string."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    try:
        return int(text, 0)
    except ValueError:
        return text


def apply_overrides(descriptor, overrides):
    """Apply `path.key=value` strings to a copy of `descriptor`; returns
    the copy.

    The path may dive into nested parameter groups of composite components
    (e.g. `cluster/tcdm.banks=64` updates the `tcdm` group of the `cluster`
    component).  Clock domain overrides are
    `clock_domains.<name>.frequency_hz`.  The edited description then goes
    through parse(), and a group value through the build of its child, so
    an override is refused or accepted, with the same message, as the same
    edit to the file would be.
    """
    raw = copy.deepcopy(descriptor)
    if not overrides:
        return raw
    domains, components = raw["clock_domains"], raw["components"]
    for text in overrides:
        if "=" not in text:
            raise ConfigError("override '%s': expected path.key=value" % text)
        lhs, _, rhs = text.partition("=")
        if "." not in lhs:
            raise ConfigError("override '%s': expected path.key=value" % text)
        target_path, _, key = lhs.rpartition(".")
        value = parse_override_value(rhs)

        if target_path.startswith("clock_domains."):
            name = target_path[len("clock_domains."):]
            if name not in domains:
                raise ConfigError("override '%s': unknown clock domain '%s'" % (text, name))
            domains[name][key] = value
            continue

        # the component itself, or the longest path of which it is a group
        path = next((p for p in sorted(components, key=len, reverse=True)
                     if target_path == p or target_path.startswith(p + "/")), None)
        if path is None:
            raise ConfigError("override '%s': no component matches '%s'" % (
                text, target_path))
        params = components[path]["params"]
        groups = target_path[len(path) + 1:].split("/") if target_path != path else []
        for part in groups:
            nxt = params.get(part)
            if not isinstance(nxt, dict):
                raise ConfigError("override '%s': '%s' is not a parameter group" % (
                    text, part))
            params = nxt
        params[key] = value
    return parse(json.dumps(raw))
