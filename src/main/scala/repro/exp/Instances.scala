package repro.exp

import repro.graphs.{GraphGen, LocalGraph, ProbModel}
import scala.collection.concurrent.TrieMap

/** The eight test networks of the paper's Table 3, with the dataset
  * substitutions of DESIGN.md §3 (real SNAP/KONECT downloads are replaced
  * by deterministic synthetic surrogates; com-Youtube and soc-Pokec are
  * additionally scaled to n = 20,000).
  *
  * `starred` marks the networks the paper evaluates with only T = 20 trials
  * (★ in its tables).
  */
final case class NetworkSpec(
    name: String,
    starred: Boolean,
    withDistance: Boolean,
    build: () => LocalGraph,
)

object Instances {

  val karate = NetworkSpec("Karate", starred = false, withDistance = true,
    () => GraphGen.karate())

  val physicians = NetworkSpec("Physicians", starred = false, withDistance = false,
    () => GraphGen.boundedOutDegreePA(n = 241, mTarget = 1098, maxOut = 9, seed = 42))

  val caGrQc = NetworkSpec("ca-GrQc", starred = false, withDistance = false,
    () => GraphGen.cliqueCommunity(n = 5242, cliqueMin = 3, cliqueMax = 6,
                                   extraEdges = 5300, seed = 7))

  val wikiVote = NetworkSpec("Wiki-Vote", starred = false, withDistance = false,
    () => GraphGen.directedPA(n = 7115, m = 103689, srcUniform = 0.28,
                              dstUniform = 0.34, seed = 11))

  /** com-Youtube surrogate, scaled: n 1.13M→20k keeping m/n ≈ 5.3. */
  val youtube = NetworkSpec("com-Youtube~", starred = true, withDistance = false,
    () => GraphGen.baBothDirections(n = 20000, bigM = 3, seed = 13))

  /** soc-Pokec surrogate, scaled: n 1.63M→20k keeping m/n ≈ 18.8. */
  val pokec = NetworkSpec("soc-Pokec~", starred = true, withDistance = false,
    () => GraphGen.directedPA(n = 20000, m = 375000, srcUniform = 0.40,
                              dstUniform = 0.25, seed = 17))

  val baS = NetworkSpec("BA_s", starred = false, withDistance = true,
    () => GraphGen.baRandomlyOriented(n = 1000, bigM = 1, seed = 19))

  val baD = NetworkSpec("BA_d", starred = false, withDistance = true,
    () => GraphGen.baRandomlyOriented(n = 1000, bigM = 11, seed = 23))

  /** Paper Table 3 order. */
  val all: Seq[NetworkSpec] =
    Seq(karate, physicians, caGrQc, wikiVote, youtube, pokec, baS, baD)

  val byName: Map[String, NetworkSpec] = all.map(s => s.name -> s).toMap

  // Keyed by spec value, not name: a spec's `build` compares by reference.
  private val graphCache = TrieMap.empty[NetworkSpec, LocalGraph]
  private val probCache = TrieMap.empty[(NetworkSpec, ProbModel), LocalGraph]

  /** Bare graph (unit probabilities), generated once and cached. */
  def graph(spec: NetworkSpec): LocalGraph =
    graphCache.getOrElseUpdate(spec, spec.build())

  /** Influence graph: bare graph with `model` probabilities, cached. */
  def influenceGraph(spec: NetworkSpec, model: ProbModel): LocalGraph =
    probCache.getOrElseUpdate((spec, model),
      ProbModel.assign(graph(spec), model))
}
