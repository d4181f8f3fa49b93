"""Mini-C abstract syntax tree.

Every node carries its source line for diagnostics.  Types are described
by :class:`Type`, which covers exactly the Mini-C type universe: ``int``,
``char``, pointers to either, and fixed-size arrays of either.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# -- types ---------------------------------------------------------------


@dataclass(frozen=True)
class Type:
    """A Mini-C type: base ('int' or 'char'), pointer depth, array size.

    ``array_size`` is None for scalars/pointers; arrays always have a
    compile-time size.  ``int`` is 4 bytes, ``char`` 1 byte.
    """

    base: str = "int"
    pointer: int = 0
    array_size: int | None = None

    @property
    def is_array(self) -> bool:
        return self.array_size is not None

    def element(self) -> "Type":
        """Type of an element of this array / pointee of this pointer."""
        if self.is_array:
            return Type(self.base, self.pointer)
        if self.pointer > 0:
            return Type(self.base, self.pointer - 1)
        raise ValueError(f"{self} has no element type")

    def decay(self) -> "Type":
        """Array-to-pointer decay (C semantics)."""
        if self.is_array:
            return Type(self.base, self.pointer + 1)
        return self

    @property
    def element_size(self) -> int:
        """Size in bytes of one element (for indexing arithmetic)."""
        elem = self.element()
        return elem.size

    @property
    def size(self) -> int:
        """Storage size in bytes of a value of this type."""
        if self.is_array:
            return self.array_size * Type(self.base, self.pointer).size
        if self.pointer > 0:
            return 4
        return 4 if self.base == "int" else 1

    def __str__(self) -> str:
        text = self.base + "*" * self.pointer
        if self.is_array:
            text += f"[{self.array_size}]"
        return text


INT = Type("int")
CHAR = Type("char")


# -- expressions ------------------------------------------------------------


@dataclass
class Expr:
    line: int = 0
    type: Type | None = field(default=None, compare=False)


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class StrLit(Expr):
    value: str = ""


@dataclass
class Name(Expr):
    ident: str = ""


@dataclass
class Unary(Expr):
    op: str = ""  # '-', '!', '~', '*', '&'
    operand: Expr | None = None


@dataclass
class Binary(Expr):
    op: str = ""  # + - * / % << >> < <= > >= == != & | ^ && ||
    left: Expr | None = None
    right: Expr | None = None


@dataclass
class Index(Expr):
    array: Expr | None = None
    index: Expr | None = None


@dataclass
class Call(Expr):
    func: str = ""
    args: list[Expr] = field(default_factory=list)


# -- statements ---------------------------------------------------------------


@dataclass
class Stmt:
    line: int = 0


@dataclass
class Block(Stmt):
    body: list[Stmt] = field(default_factory=list)


@dataclass
class Declaration(Stmt):
    name: str = ""
    decl_type: Type = field(default_factory=Type)
    init: Expr | None = None
    init_list: list[int] | None = None  # array initializer {1, 2, 3}
    init_string: str | None = None  # char array initializer "..."


@dataclass
class Assign(Stmt):
    target: Expr | None = None  # Name, Index, or Unary('*')
    value: Expr | None = None


@dataclass
class If(Stmt):
    cond: Expr | None = None
    then: Stmt | None = None
    otherwise: Stmt | None = None


@dataclass
class While(Stmt):
    cond: Expr | None = None
    body: Stmt | None = None


@dataclass
class DoWhile(Stmt):
    body: Stmt | None = None
    cond: Expr | None = None


@dataclass
class For(Stmt):
    init: Stmt | None = None  # Assign or Declaration or None
    cond: Expr | None = None
    step: Stmt | None = None  # Assign or ExprStmt
    body: Stmt | None = None


@dataclass
class Return(Stmt):
    value: Expr | None = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class ExprStmt(Stmt):
    expr: Expr | None = None


# -- top level ------------------------------------------------------------------


@dataclass
class Param:
    name: str
    type: Type
    line: int = 0


@dataclass
class Function:
    name: str
    params: list[Param]
    return_type: Type
    body: Block
    line: int = 0


@dataclass
class GlobalVar:
    name: str
    type: Type
    init: int = 0
    init_list: list[int] | None = None
    init_string: str | None = None
    line: int = 0


@dataclass
class ProgramAst:
    """A whole Mini-C translation unit."""

    globals: list[GlobalVar] = field(default_factory=list)
    functions: list[Function] = field(default_factory=list)

    def function(self, name: str) -> Function:
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(name)
