package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.graphs.{LocalGraph, ProbModel}

class InstancesSpec extends AnyFunSuite {

  test("all eight networks of Table 3 are registered, in paper order") {
    assert(Instances.all.map(_.name) == Seq(
      "Karate", "Physicians", "ca-GrQc", "Wiki-Vote",
      "com-Youtube~", "soc-Pokec~", "BA_s", "BA_d"))
  }

  test("Karate matches the paper exactly: n=34, m=156") {
    val g = Instances.graph(Instances.karate)
    assert(g.n == 34 && g.m == 156)
  }

  test("Physicians surrogate matches the paper's n and m") {
    val g = Instances.graph(Instances.physicians)
    assert(g.n == 241 && g.m == 1098)
    assert(g.maxOutDeg <= 9) // paper Δ⁺ = 9
  }

  test("ca-GrQc surrogate matches n and is within 10% of the paper's m") {
    val g = Instances.graph(Instances.caGrQc)
    assert(g.n == 5242)
    assert(math.abs(g.m - 28968.0) / 28968.0 < 0.10, s"m=${g.m}")
  }

  test("Wiki-Vote surrogate matches the paper's n and m") {
    val g = Instances.graph(Instances.wikiVote)
    assert(g.n == 7115 && g.m == 103689)
  }

  test("com-Youtube surrogate keeps the m/n ratio of ~5.3") {
    val g = Instances.graph(Instances.youtube)
    assert(g.n == 20000)
    assert(math.abs(g.m.toDouble / g.n - 5975248.0 / 1134889.0) < 1.0)
  }

  test("soc-Pokec surrogate keeps the m/n ratio of ~18.8") {
    val g = Instances.graph(Instances.pokec)
    assert(g.n == 20000)
    assert(math.abs(g.m.toDouble / g.n - 30622564.0 / 1632802.0) < 1.0)
  }

  test("BA_s and BA_d match the paper's n and m") {
    val s = Instances.graph(Instances.baS)
    val d = Instances.graph(Instances.baD)
    assert(s.n == 1000 && s.m == 999)
    assert(d.n == 1000 && d.m == 10879)
  }

  test("only com-Youtube~ and soc-Pokec~ are starred (T=20-style)") {
    assert(Instances.all.filter(_.starred).map(_.name).toSet ==
           Set("com-Youtube~", "soc-Pokec~"))
  }

  test("graph cache returns the same instance") {
    assert(Instances.graph(Instances.karate) eq Instances.graph(Instances.karate))
  }

  test("influence graph cache is per (network, model) and keeps topology") {
    val a = Instances.influenceGraph(Instances.karate, ProbModel.uc01)
    val b = Instances.influenceGraph(Instances.karate, ProbModel.uc01)
    assert(a eq b)
    val c = Instances.influenceGraph(Instances.karate, ProbModel.IWC)
    assert(!(a eq c))
    assert(c.n == a.n && c.m == a.m)
  }

  test("BenchPlan sweep rows reference registered networks and models") {
    BenchPlan.sweepRows.foreach { row =>
      assert(Instances.byName.contains(row.network.name))
      assert(ProbModel.all.map(_.name).contains(row.model.name))
      assert(row.k >= 1)
      assert(row.cfg.trials >= 1)
    }
  }

  test("BenchPlan starred rows disable Oneshot; small-k rows enable it") {
    BenchPlan.sweepRows.foreach { row =>
      if (row.network.starred) assert(row.cfg.oneshotMax == 0, row.id)
      else if (row.k <= 4) assert(row.cfg.oneshotMax > 0, row.id)
    }
  }

  test("sweepRow lookup finds exactly the declared rows") {
    assert(BenchPlan.sweepRow("Karate", "UC0.1", 1).isDefined)
    assert(BenchPlan.sweepRow("Karate", "UC0.1", 7).isEmpty)
    assert(BenchPlan.sweepRow("nope", "UC0.1", 1).isEmpty)
  }

  test("table8 plan covers all eight networks") {
    assert(BenchPlan.table8Rows.map(_.network.name).toSet ==
           Instances.all.map(_.name).toSet)
  }

  test("powersOfTwo grid is correct") {
    assert(Sweep.powersOfTwo(8) == Seq(1L, 2L, 4L, 8L))
    assert(Sweep.powersOfTwo(9) == Seq(1L, 2L, 4L, 8L))
    assert(Sweep.powersOfTwo(8, min = 2) == Seq(2L, 4L, 8L))
    assert(Sweep.powersOfTwo(0) == Seq.empty)
    // Ends at 2^62: doubling it would overflow.
    val top = Sweep.powersOfTwo(Long.MaxValue)
    assert(top.size == 63 && top.last == 1L << 62)
  }

  test("graph caches are keyed by spec, not by name") {
    val a = NetworkSpec("same-name", starred = false, withDistance = false,
                        () => LocalGraph.fromEdges(3, Seq((0, 1))))
    val b = a.copy(build = () => LocalGraph.fromEdges(5, Seq((0, 1))))
    assert(Instances.graph(a).n == 3 && Instances.graph(b).n == 5)
    assert(Instances.influenceGraph(a, ProbModel.IWC).n == 3)
    assert(Instances.influenceGraph(b, ProbModel.IWC).n == 5)
  }
}
