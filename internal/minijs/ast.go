package minijs

// Statement nodes.

type stmt interface{ stmtNode() }

type (
	varStmt struct {
		Kind  string // var, let, const
		Names []string
		Inits []expr // nil entries for bare declarations
		Line  int
	}
	funcDeclStmt struct {
		Name string
		Fn   *funcLit
	}
	exprStmt struct {
		E expr
	}
	ifStmt struct {
		Cond expr
		Then stmt
		Else stmt // may be nil
	}
	whileStmt struct {
		Cond expr
		Body stmt
	}
	doWhileStmt struct {
		Cond expr
		Body stmt
	}
	forStmt struct {
		Init stmt // may be nil (varStmt or exprStmt)
		Cond expr // may be nil
		Post expr // may be nil
		Body stmt
	}
	forInStmt struct {
		Decl string // "", "var", "let", "const"
		Name string
		Of   bool // for-of vs for-in
		Obj  expr
		Body stmt
	}
	returnStmt struct {
		Value expr // may be nil
	}
	breakStmt    struct{}
	continueStmt struct{}
	blockStmt    struct {
		Stmts []stmt
	}
	tryStmt struct {
		Block     *blockStmt
		CatchName string
		Catch     *blockStmt // may be nil
		Finally   *blockStmt // may be nil
	}
	throwStmt struct {
		Value expr
	}
	debuggerStmt struct {
		Line int
	}
	switchStmt struct {
		Subject expr
		Cases   []switchCase
	}
	emptyStmt struct{}
)

// switchCase is one case (or default, when Test is nil) clause.
type switchCase struct {
	Test expr // nil for default
	Body []stmt
}

func (*varStmt) stmtNode()      {}
func (*funcDeclStmt) stmtNode() {}
func (*exprStmt) stmtNode()     {}
func (*ifStmt) stmtNode()       {}
func (*whileStmt) stmtNode()    {}
func (*doWhileStmt) stmtNode()  {}
func (*forStmt) stmtNode()      {}
func (*forInStmt) stmtNode()    {}
func (*returnStmt) stmtNode()   {}
func (*breakStmt) stmtNode()    {}
func (*continueStmt) stmtNode() {}
func (*blockStmt) stmtNode()    {}
func (*tryStmt) stmtNode()      {}
func (*throwStmt) stmtNode()    {}
func (*debuggerStmt) stmtNode() {}
func (*switchStmt) stmtNode()   {}
func (*emptyStmt) stmtNode()    {}

// Expression nodes.

type expr interface{ exprNode() }

type (
	numberLit struct{ Value float64 }
	stringLit struct{ Value string }
	boolLit   struct{ Value bool }
	nullLit   struct{}
	undefLit  struct{}
	identExpr struct {
		Name string
		Line int
	}
	thisExpr  struct{}
	arrayLit  struct{ Elems []expr }
	objectLit struct {
		Keys   []string
		Values []expr
	}
	funcLit struct {
		Params []string
		Body   *blockStmt
		Arrow  bool
	}
	unaryExpr struct {
		Op      string // ! - + typeof void delete ~
		Operand expr
	}
	updateExpr struct {
		Op      string // ++ --
		Prefix  bool
		Operand expr
	}
	binaryExpr struct {
		Op          string
		Left, Right expr
	}
	logicalExpr struct {
		Op          string // && || ??
		Left, Right expr
	}
	condExpr struct {
		Cond, Then, Else expr
	}
	assignExpr struct {
		Op     string // = += -= *= /= %=
		Target expr   // identExpr or memberExpr
		Value  expr
	}
	callExpr struct {
		Callee expr
		Args   []expr
		Line   int
	}
	newExpr struct {
		Callee expr
		Args   []expr
	}
	memberExpr struct {
		Obj      expr
		Prop     expr // stringLit for dot access, arbitrary for [..]
		Computed bool
	}
	seqExpr struct {
		Exprs []expr
	}
)

func (*numberLit) exprNode()   {}
func (*stringLit) exprNode()   {}
func (*boolLit) exprNode()     {}
func (*nullLit) exprNode()     {}
func (*undefLit) exprNode()    {}
func (*identExpr) exprNode()   {}
func (*thisExpr) exprNode()    {}
func (*arrayLit) exprNode()    {}
func (*objectLit) exprNode()   {}
func (*funcLit) exprNode()     {}
func (*unaryExpr) exprNode()   {}
func (*updateExpr) exprNode()  {}
func (*binaryExpr) exprNode()  {}
func (*logicalExpr) exprNode() {}
func (*condExpr) exprNode()    {}
func (*assignExpr) exprNode()  {}
func (*callExpr) exprNode()    {}
func (*newExpr) exprNode()     {}
func (*memberExpr) exprNode()  {}
func (*seqExpr) exprNode()     {}

// Program is a parsed script. It is immutable once Parse returns: the
// interpreter only reads the tree, so a Cache can share one Program among
// every interpreter that runs the same source.
type Program struct {
	stmts []stmt
}
