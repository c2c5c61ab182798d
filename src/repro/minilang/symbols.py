"""Symbol information for compiled MiniLang programs."""

from dataclasses import dataclass, field


@dataclass
class GlobalInfo:
    """Compile-time information about one global declaration."""

    name: str
    type: str  # 'int', 'bool', 'mutex', 'cond'
    size: int | None = None  # array length, or None for scalars
    init: object = 0  # concrete initial value (int/bool); arrays start zeroed
    sharing: str = "auto"  # declared sharing class ('auto'/'shared'/'local')

    @property
    def is_array(self):
        return self.size is not None

    @property
    def is_data(self):
        return self.type in ("int", "bool")


@dataclass
class SymbolTable:
    """Program-wide symbol table: globals by name and function signatures."""

    globals: dict = field(default_factory=dict)  # name -> GlobalInfo
    functions: dict = field(default_factory=dict)  # name -> (params, ret_type)

    def data_globals(self):
        """Names of int/bool globals (the candidate shared data)."""
        return [g.name for g in self.globals.values() if g.is_data]

    def mutexes(self):
        return [g.name for g in self.globals.values() if g.type == "mutex"]

    def condvars(self):
        return [g.name for g in self.globals.values() if g.type == "cond"]
