package analysis

import (
	"fmt"

	"repro/internal/colog"
)

// localize rewrites every rule whose body spans multiple locations into a
// shipping rule plus a local rule, reproducing the paper's section 5.5
// transformation:
//
//	d2  nborNextVm(@X,Y,D,R) <- link(@Y,X), curVm(@Y,D,R1),
//	                            migVm(@X,Y,D,R2), R==R1+R2.
//
// becomes
//
//	d21 tmp_d2_Y(@X,Y,D,R1)  <- link(@Y,X), curVm(@Y,D,R1).
//	d22 nborNextVm(@X,Y,D,R) <- tmp_d2_Y(@X,Y,D,R1), migVm(@X,Y,D,R2),
//	                            R==R1+R2.
//
// The shipping rule evaluates at the remote site and its head tuples travel
// to the head's location, so each per-node COP only reads local tables.
func localize(res *Result) error {
	var out []*colog.Rule
	for _, r := range res.Program.Rules {
		rules, err := localizeRule(res, r)
		if err != nil {
			return err
		}
		out = append(out, rules...)
	}
	res.Program.Rules = out
	return nil
}

func localizeRule(res *Result, r *colog.Rule) ([]*colog.Rule, error) {
	label := ruleName(r)
	headLoc := r.Head.LocVar()

	// Gather the distinct body locations. Atoms without a specifier execute
	// at the head's location.
	bodyLocs := map[string]bool{}
	for _, l := range r.Body {
		if al, ok := l.(*colog.AtomLit); ok {
			loc := al.Atom.LocVar()
			if loc == "" {
				loc = headLoc
			}
			bodyLocs[loc] = true
		}
	}
	// Derivation rules with a single-site body execute at that site and ship
	// the head tuple over the network (standard declarative networking).
	// Constraint rules are different: their head carries solver attributes
	// that exist only symbolically at the COP site, so their body must be
	// brought to the head's location even when it is a single remote group
	// (e.g. Follow-the-Sun c2 whose body reads @Y's resource table).
	if len(bodyLocs) <= 1 {
		if r.Kind != colog.KindConstraint {
			return []*colog.Rule{r}, nil
		}
		if len(bodyLocs) == 0 || (headLoc != "" && bodyLocs[headLoc]) {
			return []*colog.Rule{r}, nil
		}
		bodyLocs[headLoc] = true // force a (possibly empty) local group
	}
	if headLoc == "" {
		return nil, aerrf(label, "body spans locations %v but head has no location specifier", sortedKeys(bodyLocs))
	}
	if !bodyLocs[headLoc] {
		return nil, aerrf(label, "body spans locations %v, none matching head location @%s", sortedKeys(bodyLocs), headLoc)
	}

	// Variables needed outside each remote group: head vars plus expression
	// literal vars plus vars of atoms in other groups.
	varsUsedBy := map[string]map[string]bool{} // location -> var set of that group's atoms
	for _, loc := range sortedKeys(bodyLocs) {
		varsUsedBy[loc] = map[string]bool{}
	}
	exprVars := map[string]bool{}
	for _, l := range r.Body {
		switch x := l.(type) {
		case *colog.AtomLit:
			loc := x.Atom.LocVar()
			if loc == "" {
				loc = headLoc
			}
			for _, v := range atomVars(x.Atom, nil) {
				varsUsedBy[loc][v] = true
			}
		case *colog.CondLit:
			for _, v := range termVars(x.Expr, nil) {
				exprVars[v] = true
			}
		case *colog.AssignLit:
			exprVars[x.Var] = true
			for _, v := range termVars(x.Expr, nil) {
				exprVars[v] = true
			}
		}
	}
	headVars := map[string]bool{}
	for _, v := range atomVars(r.Head, nil) {
		headVars[v] = true
	}

	var rules []*colog.Rule
	local := &colog.Rule{Label: label + "_local", Kind: r.Kind, Head: r.Head, Pos: r.Pos}
	tmpIdx := 0
	for _, loc := range sortedKeys(bodyLocs) {
		if loc == headLoc {
			continue
		}
		// Collect this remote group's atoms and the conditions fully bound
		// inside the group.
		var groupAtoms []*colog.Atom
		groupBound := varsUsedBy[loc]
		if !groupBound[headLoc] {
			return nil, aerrf(label, "remote group @%s does not bind head location %s; add a connecting atom such as link(@%s,%s)", loc, headLoc, loc, headLoc)
		}
		for _, l := range r.Body {
			al, ok := l.(*colog.AtomLit)
			if !ok {
				continue
			}
			aloc := al.Atom.LocVar()
			if aloc == "" {
				aloc = headLoc
			}
			if aloc == loc {
				groupAtoms = append(groupAtoms, al.Atom)
			}
		}
		// Shipped attributes: group-bound vars needed elsewhere (head, other
		// groups, expressions), location var first. An aggregate head
		// counts every body binding, so there every group-bound var ships:
		// bindings that differ only in a var read nowhere else must stay
		// distinct tuples, or the aggregate sees one where there were many.
		needed := []string{headLoc}
		seen := map[string]bool{headLoc: true}
		appendNeeded := func(v string) {
			if seen[v] || !groupBound[v] {
				return
			}
			used := headVars[v] || exprVars[v] || r.Head.HasAggregate()
			if !used {
				for oloc, set := range varsUsedBy {
					if oloc != loc && set[v] {
						used = true
						break
					}
				}
			}
			if used {
				seen[v] = true
				needed = append(needed, v)
			}
		}
		// Deterministic order: appearance order within the group atoms.
		for _, ga := range groupAtoms {
			for _, v := range atomVars(ga, nil) {
				appendNeeded(v)
			}
		}
		tmpIdx++
		tmpPred := fmt.Sprintf("tmp_%s_%s", sanitizeLabel(label), loc)
		tmpArgs := make([]colog.Term, len(needed))
		for i, v := range needed {
			tmpArgs[i] = &colog.VarTerm{Name: v, Loc: i == 0}
		}
		shipHead := &colog.Atom{Pred: tmpPred, Args: tmpArgs, Pos: r.Pos}
		shipBody := make([]colog.Literal, 0, len(groupAtoms))
		for _, ga := range groupAtoms {
			shipBody = append(shipBody, &colog.AtomLit{Atom: ga})
		}
		ship := &colog.Rule{
			Label: fmt.Sprintf("%s_ship%d", label, tmpIdx),
			Kind:  colog.KindDerivation,
			Head:  shipHead,
			Body:  shipBody,
			Pos:   r.Pos,
		}
		res.Rewritten[ship.Label] = label
		rules = append(rules, ship)
		// The local rule joins on the tmp tuple instead of the remote atoms.
		localTmpArgs := make([]colog.Term, len(needed))
		for i, v := range needed {
			localTmpArgs[i] = &colog.VarTerm{Name: v, Loc: i == 0}
		}
		local.Body = append(local.Body, &colog.AtomLit{
			Atom: &colog.Atom{Pred: tmpPred, Args: localTmpArgs, Pos: r.Pos},
		})
	}
	// Local group atoms and all expression literals.
	for _, l := range r.Body {
		switch x := l.(type) {
		case *colog.AtomLit:
			aloc := x.Atom.LocVar()
			if aloc == "" {
				aloc = headLoc
			}
			if aloc == headLoc {
				local.Body = append(local.Body, l)
			}
		default:
			local.Body = append(local.Body, l)
		}
	}
	res.Rewritten[local.Label] = label
	rules = append(rules, local)
	return rules, nil
}

func ruleName(r *colog.Rule) string {
	if r.Label != "" {
		return r.Label
	}
	return r.Head.Pred
}

func sanitizeLabel(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == '(' || r == ')' || r == ',' || r == ' ' {
			r = '_'
		}
		out = append(out, r)
	}
	return string(out)
}
