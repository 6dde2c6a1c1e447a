package lp

// CheckNodeLPsBothBases exposes the node-LP differential harness to the
// external test package, which feeds it models built by packages that
// import lp.
var CheckNodeLPsBothBases = checkNodeLPsBothBases
