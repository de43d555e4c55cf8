package analysis

// callgraph.go builds a module-wide call graph over go/types: static calls
// resolve directly, interface-method calls resolve by class-hierarchy
// analysis (every module type implementing the interface contributes its
// method), and calls through local function-valued variables resolve by
// tracking which function literals or named functions flow into the
// variable. The graph is deliberately sound-but-incomplete: targets
// outside the analysed packages (stdlib, dynamic values with no tracked
// flow) are represented by Unresolved call sites, and analyzers must
// degrade gracefully there (docs/ANALYSIS.md spells out each boundary).

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"sync"
)

// A Program is the whole-program view shared by interprocedural analyzers:
// the loaded packages plus the call graph spanning them. The driver builds
// it once per Run and hands it to every Pass.
type Program struct {
	Pkgs  []*Package
	Graph *CallGraph
}

// A FuncNode is one function in the call graph: a declared function or
// method (Decl/Obj set) or a function literal (Lit set).
type FuncNode struct {
	// Name is a stable human-readable identifier:
	// "pkg.Func", "(pkg.T).Method", "(*pkg.T).Method" or "pkg.Func$2"
	// for the 2nd literal (preorder) inside pkg.Func.
	Name string
	Pkg  *Package
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Obj  *types.Func

	// Out and In are the call sites leaving and entering this node.
	Out []*CallSite
	In  []*CallSite
}

// Body returns the function body, or nil for bodiless declarations.
func (f *FuncNode) Body() *ast.BlockStmt {
	if f.Lit != nil {
		return f.Lit.Body
	}
	if f.Decl != nil {
		return f.Decl.Body
	}
	return nil
}

// Type returns the function's signature AST.
func (f *FuncNode) Type() *ast.FuncType {
	if f.Lit != nil {
		return f.Lit.Type
	}
	return f.Decl.Type
}

// A CallSite is one call expression attributed to its innermost enclosing
// function, with the module-internal targets it may reach.
type CallSite struct {
	Caller *FuncNode
	Call   *ast.CallExpr
	// Callees lists the resolved module-internal targets (one for static
	// calls, possibly several for interface or closure calls).
	Callees []*FuncNode
	// Unresolved is set when the call may additionally reach targets the
	// graph cannot see: external functions, untracked function values,
	// or interface implementations outside the module.
	Unresolved bool
	// Go and Defer mark `go f()` and `defer f()` sites.
	Go    bool
	Defer bool
}

// A CallGraph spans every function of the analysed packages.
type CallGraph struct {
	Nodes []*FuncNode

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
	// varFlows tracks, per function-typed variable, which function nodes
	// were observed flowing into it (assignments and initialisations
	// anywhere in the analysed packages).
	varFlows map[*types.Var][]*FuncNode
	// sites indexes every recorded call site by its expression, so
	// analyzers can resolve callees for an arbitrary *ast.CallExpr.
	sites map[*ast.CallExpr]*CallSite
	// named collects every non-interface named type of the module for CHA.
	named []types.Type

	// mu guards the lazy caches below: packages are analysed in parallel
	// and share one graph.
	mu          sync.Mutex
	cha         map[chaKey][]*FuncNode
	spawnedOnce sync.Once
	spawned     map[*FuncNode]map[int]bool
}

type chaKey struct {
	iface  *types.Interface
	method string
}

// SiteOf returns the recorded call site for a call expression, or nil for
// calls the graph did not record (builtins, conversions).
func (cg *CallGraph) SiteOf(call *ast.CallExpr) *CallSite { return cg.sites[call] }

// BuildProgram constructs the whole-program view for a set of packages.
func BuildProgram(pkgs []*Package) *Program {
	cg := &CallGraph{
		byObj:    map[*types.Func]*FuncNode{},
		byLit:    map[*ast.FuncLit]*FuncNode{},
		varFlows: map[*types.Var][]*FuncNode{},
		sites:    map[*ast.CallExpr]*CallSite{},
		cha:      map[chaKey][]*FuncNode{},
	}
	// Pass 1: index every function declaration and literal, and every
	// named type (for interface resolution).
	for _, pkg := range pkgs {
		cg.indexPackage(pkg)
	}
	// Pass 2: record function-value flows into variables (closure
	// tracking), then resolve every call site.
	for _, pkg := range pkgs {
		cg.collectFlows(pkg)
	}
	for _, pkg := range pkgs {
		cg.resolvePackage(pkg)
	}
	return &Program{Pkgs: pkgs, Graph: cg}
}

func (cg *CallGraph) indexPackage(pkg *Package) {
	if pkg.Types != nil {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
				continue
			}
			cg.named = append(cg.named, tn.Type())
		}
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			node := &FuncNode{Pkg: pkg, Decl: fd}
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				node.Obj = obj
				node.Name = graphFuncName(obj)
				cg.byObj[obj] = node
			} else {
				node.Name = pkg.Path + "." + fd.Name.Name
			}
			cg.Nodes = append(cg.Nodes, node)
			// Literals nested in this declaration, in preorder.
			counter := 0
			parent := node
			ast.Inspect(fd, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					counter++
					ln := &FuncNode{
						Name: fmt.Sprintf("%s$%d", parent.Name, counter),
						Pkg:  pkg,
						Lit:  lit,
					}
					cg.byLit[lit] = ln
					cg.Nodes = append(cg.Nodes, ln)
				}
				return true
			})
		}
	}
}

// graphFuncName renders a deterministic name for a declared function object.
func graphFuncName(obj *types.Func) string {
	sig, _ := obj.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := sig.Recv().Type()
		return "(" + types.TypeString(recv, nil) + ")." + obj.Name()
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}

// collectFlows records which functions flow into function-typed variables:
// `f := func() {...}`, `var f = helper`, `f = t.method` and later
// reassignments all register their sources under the variable's object.
func (cg *CallGraph) collectFlows(pkg *Package) {
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := pkg.Info.Defs[id]
		if obj == nil {
			obj = pkg.Info.Uses[id]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return
		}
		for _, fn := range cg.funcValue(pkg, rhs, nil) {
			cg.varFlows[v] = append(cg.varFlows[v], fn)
		}
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) == len(st.Rhs) {
					for i := range st.Lhs {
						record(st.Lhs[i], st.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(st.Names) == len(st.Values) {
					for i := range st.Names {
						record(st.Names[i], st.Values[i])
					}
				}
			}
			return true
		})
	}
}

// funcValue resolves an expression to the function nodes it may denote:
// literals, named functions, method values, and (one level of) variables
// previously recorded by collectFlows.
func (cg *CallGraph) funcValue(pkg *Package, e ast.Expr, seen map[*types.Var]bool) []*FuncNode {
	switch v := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		if n := cg.byLit[v]; n != nil {
			return []*FuncNode{n}
		}
	case *ast.Ident:
		switch obj := pkg.Info.Uses[v].(type) {
		case *types.Func:
			if n := cg.byObj[obj]; n != nil {
				return []*FuncNode{n}
			}
		case *types.Var:
			if seen == nil {
				seen = map[*types.Var]bool{}
			}
			if seen[obj] {
				return nil
			}
			seen[obj] = true
			return cg.varFlows[obj]
		}
	case *ast.SelectorExpr:
		// Method value (t.Method) or package-qualified function (pkg.F).
		if sel, ok := pkg.Info.Selections[v]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if n := cg.byObj[fn]; n != nil {
					return []*FuncNode{n}
				}
			}
		} else if fn, ok := pkg.Info.Uses[v.Sel].(*types.Func); ok {
			if n := cg.byObj[fn]; n != nil {
				return []*FuncNode{n}
			}
		}
	}
	return nil
}

func (cg *CallGraph) resolvePackage(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			cg.resolveBody(pkg, fd)
		}
	}
}

// resolveBody attributes every call in decl (and its nested literals) to
// the innermost enclosing function node.
func (cg *CallGraph) resolveBody(pkg *Package, decl *ast.FuncDecl) {
	var walk func(owner *FuncNode, n ast.Node)
	walk = func(owner *FuncNode, n ast.Node) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch v := x.(type) {
			case *ast.FuncLit:
				// A literal's calls belong to the literal, not to owner.
				if child := cg.byLit[v]; child != nil {
					walk(child, v.Body)
				}
				return false
			case *ast.GoStmt:
				cg.addSite(pkg, owner, v.Call, true, false)
				// Arguments and the callee expression still get their
				// ordinary treatment below via the nested CallExpr visit;
				// suppress double-adding the spawn call itself.
				for _, arg := range v.Call.Args {
					walk(owner, arg)
				}
				walk(owner, v.Call.Fun)
				return false
			case *ast.DeferStmt:
				cg.addSite(pkg, owner, v.Call, false, true)
				for _, arg := range v.Call.Args {
					walk(owner, arg)
				}
				walk(owner, v.Call.Fun)
				return false
			case *ast.CallExpr:
				cg.addSite(pkg, owner, v, false, false)
			}
			return true
		})
	}
	obj, ok := pkg.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return // type error; degrade
	}
	node := cg.byObj[obj]
	if node == nil {
		return
	}
	walk(node, decl.Body)
}

// addSite resolves one call expression and links the edge.
func (cg *CallGraph) addSite(pkg *Package, caller *FuncNode, call *ast.CallExpr, isGo, isDefer bool) {
	// Conversions (T(x)) are not calls.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	site := &CallSite{Caller: caller, Call: call, Go: isGo, Defer: isDefer}
	fun := ast.Unparen(call.Fun)
	switch fn := fun.(type) {
	case *ast.FuncLit:
		if n := cg.byLit[fn]; n != nil {
			site.Callees = []*FuncNode{n}
		}
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fn].(type) {
		case *types.Builtin:
			return // panic, append, ... — not graph edges
		case *types.Func:
			if n := cg.byObj[obj]; n != nil {
				site.Callees = []*FuncNode{n}
			} else {
				site.Unresolved = true // external function
			}
		case *types.Var:
			if flows := cg.varFlows[obj]; len(flows) > 0 {
				site.Callees = flows
			} else {
				site.Unresolved = true // untracked function value
			}
		default:
			site.Unresolved = true
		}
	case *ast.SelectorExpr:
		sel, ok := pkg.Info.Selections[fn]
		if !ok {
			// Package-qualified call: pkg.F(...).
			if obj, ok := pkg.Info.Uses[fn.Sel].(*types.Func); ok {
				if n := cg.byObj[obj]; n != nil {
					site.Callees = []*FuncNode{n}
				} else {
					site.Unresolved = true
				}
			} else {
				site.Unresolved = true
			}
			break
		}
		obj, ok := sel.Obj().(*types.Func)
		if !ok {
			// Calling a func-typed struct field: untracked.
			site.Unresolved = true
			break
		}
		if iface, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
			site.Callees = cg.implementations(iface, obj.Name())
			site.Unresolved = true // implementations outside the module
		} else if n := cg.byObj[obj]; n != nil {
			site.Callees = []*FuncNode{n}
		} else {
			site.Unresolved = true // external method
		}
	default:
		site.Unresolved = true
	}
	if len(site.Callees) == 0 && !site.Unresolved {
		return // builtin-like: nothing to record
	}
	cg.sites[call] = site
	caller.Out = append(caller.Out, site)
	for _, callee := range site.Callees {
		callee.In = append(callee.In, site)
	}
}

// implementations performs class-hierarchy analysis: every named module
// type whose method set (value or pointer) satisfies iface contributes its
// implementation of the named method.
func (cg *CallGraph) implementations(iface *types.Interface, method string) []*FuncNode {
	cg.mu.Lock()
	defer cg.mu.Unlock()
	key := chaKey{iface, method}
	if nodes, ok := cg.cha[key]; ok {
		return nodes
	}
	var out []*FuncNode
	for _, t := range cg.named {
		ptr := types.NewPointer(t)
		if !types.Implements(t, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, nil, method)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if n := cg.byObj[fn]; n != nil {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	cg.cha[key] = out
	return out
}

// paramIndex returns the index of the parameter that id denotes in fn's
// signature, or -1.
func paramIndex(pkg *Package, fn *FuncNode, id *ast.Ident) int {
	obj := pkg.Info.Uses[id]
	if obj == nil {
		return -1
	}
	params := fn.Type().Params
	if params == nil {
		return -1
	}
	i := 0
	for _, field := range params.List {
		for _, name := range field.Names {
			if pkg.Info.Defs[name] == obj {
				return i
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	return -1
}

// SpawnedParams computes (once, lazily), for every function node, the set
// of parameter indices that the function (transitively) launches as a
// goroutine: `go f()` where f is a parameter, or passing a parameter
// onward to another spawn helper. goleak uses this to check goroutine
// bodies at the call site that supplies them.
func (cg *CallGraph) SpawnedParams() map[*FuncNode]map[int]bool {
	cg.spawnedOnce.Do(func() { cg.spawned = cg.computeSpawnedParams() })
	return cg.spawned
}

func (cg *CallGraph) computeSpawnedParams() map[*FuncNode]map[int]bool {
	out := map[*FuncNode]map[int]bool{}
	mark := func(fn *FuncNode, i int) bool {
		if out[fn] == nil {
			out[fn] = map[int]bool{}
		}
		if out[fn][i] {
			return false
		}
		out[fn][i] = true
		return true
	}
	// Direct: go param().
	for _, fn := range cg.Nodes {
		body := fn.Body()
		if body == nil {
			continue
		}
		ast.Inspect(body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if id, ok := ast.Unparen(gs.Call.Fun).(*ast.Ident); ok {
				if i := paramIndex(fn.Pkg, fn, id); i >= 0 {
					mark(fn, i)
				}
			}
			return true
		})
	}
	// Transitive: passing a parameter to a helper that spawns it.
	for changed := true; changed; {
		changed = false
		for _, fn := range cg.Nodes {
			for _, site := range fn.Out {
				for _, callee := range site.Callees {
					spawned := out[callee]
					if len(spawned) == 0 {
						continue
					}
					for ai, arg := range site.Call.Args {
						if !spawned[ai] {
							continue
						}
						if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
							if pi := paramIndex(fn.Pkg, fn, id); pi >= 0 && mark(fn, pi) {
								changed = true
							}
						}
					}
				}
			}
		}
	}
	return out
}
