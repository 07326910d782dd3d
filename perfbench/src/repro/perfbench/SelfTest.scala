package repro.perfbench

/** Self-tests of the harness's own arithmetic, run at the start of every
  * benchmark run. Each failure is a failed operation of the run.
  */
object SelfTest {

  def run(checks: Checks): Unit = {
    def ok(cond: Boolean, what: String): Unit = checks(cond, s"selftest: $what")

    // ten-beyond rule: p99 needs 1,000 samples; fewer fall back to n − 10
    val seq = (n: Int) => (1 to n).map(_.toDouble).reverse
    ok(Stats.tail(seq(1000), 99) == ((990.0, 99.0, 1000)), "p99 of 1000 samples")
    ok(Stats.tail(seq(2000), 99) == ((1980.0, 99.0, 2000)), "p99 of 2000 samples")
    ok(Stats.tail(seq(100), 99) == ((90.0, 90.0, 100)), "100 samples fall back to p90")
    ok(Stats.tail(seq(40), 99) == ((30.0, 75.0, 40)), "40 samples fall back to p75")
    ok(Stats.tail(seq(5), 99) == ((1.0, 20.0, 5)), "5 samples give the minimum")
    ok(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0 && Stats.median(Seq(4.0, 1.0)) == 2.5,
      "median")

    // self time: three children of the root, the first with a child of its own
    val spans = Seq(
      Span(0, "t", "root", -1, 0, 100),
      Span(1, "t", "a", 0, 10, 30),
      Span(2, "t", "b", 0, 35, 50),
      Span(3, "t", "c", 0, 60, 70),
      Span(4, "t", "a.inner", 1, 12, 28))
    val self = Trace.selfNanos(spans)
    ok(self == Map(0 -> 55L, 1 -> 4L, 2 -> 15L, 3 -> 10L, 4 -> 16L),
      s"self time on nested spans: $self")

    // the tracer nests spans by call order
    val tr = new Tracer
    tr.root("q0", "query") { tr.span("probe")(tr.span("inner")(())); tr.span("verify")(()) }
    val parentOf = tr.all.map(s => s.name -> tr.all.find(_.id == s.parent).map(_.name)).toMap
    ok(parentOf == Map("query" -> None, "probe" -> Some("query"),
                       "inner" -> Some("probe"), "verify" -> Some("query")) &&
       tr.all.forall(_.trace == "q0"), s"span parents: $parentOf")

    // candidate recall: zero-score entries of the exact top-k do not count
    val exact = Seq(("a", 0.9), ("b", 0.5), ("c", 0.0))
    ok(Stats.candidateRecall(exact, Set("a", "x")) == Some(0.5), "recall 1 of 2")
    ok(Stats.candidateRecall(exact, Set("a", "b", "z")) == Some(1.0), "recall 2 of 2")
    ok(Stats.candidateRecall(Seq(("c", 0.0)), Set("c")).isEmpty, "recall undefined")
  }
}
