package lint

import (
	"go/ast"
	"go/types"
)

// ctxIfaceNames are the service/engine seam interfaces whose
// implementations carry request-scoped state (trace, deadline) and so
// must accept a context first.
var ctxIfaceNames = map[string]bool{
	"Backend":   true,
	"Evaluator": true,
}

// ctxMethodNames are the methods those interfaces are recognized by —
// an interface only counts as a seam interface if it declares at least
// one of them.
var ctxMethodNames = map[string]bool{
	"Eval":         true,
	"EvalPattern":  true,
	"ApplyUpdates": true,
}

// ctxPublicTypes and ctxPublicMethods are the public seam: an exported
// method with one of these names on a type with one of these names
// evaluates or updates, so it carries a trace and a deadline.
var (
	ctxPublicTypes   = map[string]bool{"DB": true, "Service": true}
	ctxPublicMethods = map[string]bool{
		"Query": true, "QueryFunc": true, "Count": true, "Select": true,
		"Apply": true, "Update": true, "Batch": true,
	}
)

// CtxFirst enforces the ctx-first calling convention: the seam
// interfaces (service.Backend, core.Evaluator) declare context.Context
// as the first parameter of their request methods, exported methods of
// their implementations never take a context anywhere but first, and
// the public DB and Service methods that evaluate or update take one
// first.
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc:  "seam interfaces, their implementations and the public DB/Service reads and updates take context.Context as the first parameter",
	Run:  runCtxFirst,
}

func runCtxFirst(p *Pass) {
	// Pass 1: interface declarations in this package. A seam interface
	// must declare ctx first on every recognized request method.
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			it, ok := ts.Type.(*ast.InterfaceType)
			if !ok || !ctxIfaceNames[ts.Name.Name] {
				return true
			}
			if !declaresCtxMethod(p, it) {
				return true
			}
			for _, field := range it.Methods.List {
				ft, ok := field.Type.(*ast.FuncType)
				if !ok || len(field.Names) == 0 {
					continue
				}
				name := field.Names[0].Name
				if !ctxMethodNames[name] {
					continue
				}
				if !firstParamIsCtx(p, ft) {
					p.Reportf(field.Pos(), "interface method %s.%s must take context.Context as its first parameter", ts.Name.Name, name)
				}
			}
			return true
		})
	}

	// Pass 2: implementations and the public seam. Collect seam
	// interface types visible here (this package plus its imports),
	// then check exported methods of local types that implement one,
	// and the public reads and updates by name.
	ifaces := seamInterfaces(p.Pkg)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() {
				continue
			}
			obj, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := obj.Type().(*types.Signature)
			recv := sig.Recv()
			if recv == nil {
				continue
			}
			params := sig.Params()
			if name := recvName(recv.Type()); ctxPublicTypes[name] && ctxPublicMethods[fd.Name.Name] &&
				(params.Len() == 0 || !isContextContext(params.At(0).Type())) {
				p.Reportf(fd.Name.Pos(), "method %s.%s evaluates or updates and must take context.Context as its first parameter", name, fd.Name.Name)
				continue
			}
			if !implementsAny(recv.Type(), ifaces) {
				continue
			}
			for i := 0; i < params.Len(); i++ {
				if isContextContext(params.At(i).Type()) {
					if i != 0 {
						p.Reportf(fd.Name.Pos(), "method %s on a seam-interface implementation takes context.Context as parameter %d; it must come first", fd.Name.Name, i+1)
					}
					break
				}
			}
		}
	}
}

// declaresCtxMethod reports whether the interface literal declares at
// least one recognized request method.
func declaresCtxMethod(p *Pass, it *ast.InterfaceType) bool {
	for _, field := range it.Methods.List {
		for _, name := range field.Names {
			if ctxMethodNames[name.Name] {
				return true
			}
		}
	}
	return false
}

func firstParamIsCtx(p *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil || len(ft.Params.List) == 0 {
		return false
	}
	first := ft.Params.List[0]
	tv, ok := p.Info.Types[first.Type]
	if !ok {
		return false
	}
	return isContextContext(tv.Type)
}

// seamInterfaces finds interface types named like a seam interface and
// declaring a recognized method, in pkg and its direct imports.
func seamInterfaces(pkg *types.Package) []*types.Interface {
	var out []*types.Interface
	scan := func(p *types.Package) {
		scope := p.Scope()
		for _, name := range scope.Names() {
			if !ctxIfaceNames[name] {
				continue
			}
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			it, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if ctxMethodNames[it.Method(i).Name()] {
					out = append(out, it)
					break
				}
			}
		}
	}
	scan(pkg)
	for _, imp := range pkg.Imports() {
		scan(imp)
	}
	return out
}

// recvName names a method receiver's type, through a pointer.
func recvName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func implementsAny(t types.Type, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if types.Implements(t, it) {
			return true
		}
		if _, isPtr := t.(*types.Pointer); !isPtr {
			if types.Implements(types.NewPointer(t), it) {
				return true
			}
		}
	}
	return false
}
