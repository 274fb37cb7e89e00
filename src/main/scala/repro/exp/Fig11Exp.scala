package repro.exp

import repro.baselines.{DualTrans, InvIdx}
import repro.data.SetGen

/** Fig. 11 — index size and construction time of LES³ (TGM, with L2P
  * training as its construction cost) vs DualTrans and InvIdx. The paper
  * reports the TGM needing up to 90% less space than either baseline.
  * `LES3(TGM)` is the paper's quantity, the matrix Roaring-compressed by
  * rows; `LES3(in memory)` is the column-major matrix the engine holds.
  */
object Fig11Exp {

  final case class Row(dataset: String, method: String, sizeBytes: Long, buildMs: Double)

  def run(profiles: Seq[SetGen.Profile] = Seq(SetGen.kosarakLite, SetGen.dblpLite),
          pairs: Int = 20000): Seq[Row] =
    profiles.flatMap { p =>
      val db = SetGen.local(p)
      val built = Harness.buildLes3(db, p.nTokens, Harness.defaultGroups(p.nSets), pairs)
      val (dual, dualMs) = Harness.timeMs(new DualTrans(db))
      val (inv, invMs) = Harness.timeMs(new InvIdx(db))
      Seq(
        Row(p.name, "LES3(TGM)", built.index.tgm.sizeBytes, built.partitionMs),
        Row(p.name, "LES3(in memory)", built.index.tgm.columnBytes, built.partitionMs),
        Row(p.name, "DualTrans", dual.sizeBytes, dualMs),
        Row(p.name, "InvIdx", inv.sizeBytes, invMs),
      )
    }

  def render(rows: Seq[Row]): String =
    Fmt.table("Fig 11: index size and construction time",
      Seq("dataset", "method", "index KB", "build ms"),
      rows.map(r => Seq(r.dataset, r.method, Fmt.kb(r.sizeBytes), Fmt.ms(r.buildMs))))
}
