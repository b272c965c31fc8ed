package oplog

// plannerPathological lists the graph patterns of the pattern_select
// pool that package oracle's work bound admits (a backtracking join
// enumerates them in at most a thousand steps) but that rpqd at the
// commit the benchmark was defined on needs more than 100 ms for: eight
// run into the 2 s request deadline, eight take 0.4–1.8 s, fourteen
// 0.1–0.2 s, and the next most expensive pattern of the pool takes
// about 80 ms. A chain that ends in a constant and two edges of one rare
// predicate sharing their object are typical: the planner starts them
// from the wrong end. An op that times out fails in every pass and
// measures the deadline; one within a factor of two of it fails whenever
// the box runs slow. So these thirty stay out of every op log. The list
// is frozen: a log must not depend on the commit it measures, so a
// pattern that a later commit makes slow stays in, and shows as a slower
// or failed op. The time after each is the fastest of four executions
// when the list was made.
var plannerPathological = map[string]bool{
	"?x0 ^P12 ?x1 . ?x1 P12 ?x2 . ?x2 P1 ?x3 . ?x3 P18 ?x4 . ?x0 ^P12 Q7242 . ?x0 P10 Q1787 . ?x0 P10* ?r":                   true, // deadline
	"?x0 ^P18 ?x1 . ?x1 P8 ?x2 . ?x2 ^P12 ?x3 . ?x3 P18 Q17767":                                                              true, // deadline
	"?x0 ^P15 ?x1 . ?x1 ^P12 ?x2 . ?x2 P57 ?x3 . ?x0 P18 ?s0 . ?x0 ^P57 Q10927 . ?x0 P12 ?s2 . ?x0 P12?/P10 ?r":              true, // deadline
	"?x0 P12 ?x1 . ?x1 ^P12 ?x2 . ?x2 P12 ?x3 . ?x3 ^P12 Q19469 . ?x0 P43 Q179 . ?x0 ^P12 ?s1 . ?x0 P12/P32* ?r":             true, // deadline
	"?x0 ^P12 ?x1 . ?x1 ^P36 ?x2 . ?x2 ^P12 ?x3 . ?x3 ^P18 ?x4 . ?x0 P18 ?s0 . ?x0 ^P12 Q17899 . ?x0 P21 ?s2 . ?x0 P12* ?r":  true, // deadline
	"?x0 P19 ?x1 . ?x1 P10 ?x2 . ?x2 ^P10 ?x3 . ?x3 ^P19 Q9472 . ?x0 ^P10 ?s0 . ?x0 ^P12 Q11305 . ?x0 (P48|P40)+ ?r":         true, // deadline
	"?x0 P45 ?x1 . ?x1 ^P10 ?x2 . ?x2 ^P10 Q5873":                                                                            true, // deadline
	"?x0 ^P37 ?x1 . ?x1 P45 ?x2 . ?x2 P10 Q3139":                                                                             true, // deadline
	"?x0 P12 ?x1 . ?x1 P12 ?x2 . ?x2 P37 ?x3 . ?x3 P51 ?x4 . ?x0 ^P8 ?s0 . ?x0 P54 ?s1 . ?x0 ^P57 Q4392 . ?x0 P50/P45* ?r":   true, // 1568 ms
	"?x0 ^P59 ?x1 . ?x1 ^P37 ?x2 . ?x2 P50 Q16351":                                                                           true, // 1164 ms
	"Q18112 P3 ?x1 . ?x1 P37 ?x2 . ?x2 ^P12 Q7665 . ?x1 ^P37 ?s0 . ?x1 ^P12 ?s1 . ?x1 P50 ?s2 . ?x1 P12+ ?r":                 true, // 968 ms
	"?x0 P59 ?x1 . ?x1 ^P4 ?x2 . ?x2 P10 Q592":                                                                               true, // 955 ms
	"Q9596 P59 ?x1 . ?x1 P12 ?x2 . ?x2 ^P47 ?x3 . ?x3 P18 ?x4 . ?x1 P37 ?s0 . ?x1 P17 Q4622 . ?x1 P21 ?s2 . ?x1 P15/P45* ?r": true, // 713 ms
	"?x0 P36 ?x1 . ?x1 ^P36 ?x2 . ?x2 P36 Q13103":                                                                            true, // 595 ms
	"?x0 P38 ?x1 . ?x1 P36 ?x2 . ?x2 P32 Q8205":                                                                              true, // 506 ms
	"Q4645 ^P10 ?x1 . ?x1 P12 ?x2 . ?x2 ^P49 ?x3 . ?x3 ^P37 ?x4 . ?x1 ^P45 ?s0 . ?x1 ^P32 Q10045 . ?x1 (P12|P10)+ ?r":        true, // 407 ms
	"?x0 P19 ?x1 . ?x1 ^P12 Q18278 . ?x0 P10 Q15380 . ?x0 P11 ?s1 . ?x0 P10 ?s2 . ?x0 P27/P12 ?r":                            true, // 192 ms
	"?x0 P1 ?x1 . ?x1 P10 Q18382":   true, // 177 ms
	"?x0 ^P54 ?x1 . ?x1 ^P12 Q4815": true, // 176 ms
	"?x0 ^P15 ?x1 . ?x1 P12 ?x2 . ?x2 P12 ?x3 . ?x3 P57 ?x4 . ?x0 P1 ?s0 . ?x0 P12 ?s1 . ?x0 ^P5 Q19911 . ?x0 P45* ?r": true, // 172 ms
	"?x0 ^P45 ?x1 . ?x1 P45 Q7913 . ?x0 P18+ ?r":                  true, // 168 ms
	"?x0 ^P15 ?x1 . ?x1 P10 Q15332":                               true, // 165 ms
	"?x0 P31 ?x1 . ?x1 P12 Q5396":                                 true, // 162 ms
	"?x0 ^P7 ?x1 . ?x1 ^P12 Q1864":                                true, // 159 ms
	"?x0 ^P8 ?x1 . ?x1 ^P12 ?x2 . ?x2 ^P59 ?x3 . ?x3 ^P45 Q17424": true, // 154 ms
	"?x0 P58 ?x1 . ?x1 ^P12 Q1262":                                true, // 150 ms
	"?x ^P21 ?y0":                                                 true, // 144 ms
	"Q6814 P12 ?x1 . ?x1 P10 ?x2 . ?x2 P12 ?x3 . ?x3 P14 ?x4 . ?x1 P12 ?s0 . ?x1 ^P32 Q14200 . ?x1 P12?/P10 ?r":      true, // 140 ms
	"Q15557 P45 ?x1 . ?x1 ^P45 ?x2 . ?x2 ^P17 ?x3 . ?x3 ^P27 ?x4 . ?x1 P19?/P12 ?r":                                  true, // 118 ms
	"Q2522 ^P12 ?x1 . ?x1 P1 ?x2 . ?x2 ^P60 ?x3 . ?x3 P50 Q4830 . ?x1 P12 ?s0 . ?x1 ^P15 Q10425 . ?x1 (P12|P12)+ ?r": true, // 102 ms
}
