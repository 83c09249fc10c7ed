"""An await suspends the handler inside a critical section."""


class Handler:
    async def handle_submit(self, ledger, accumulator, batch):
        ledger.charge_batch(batch.users, batch.epsilon)
        await self.audit_log(batch)
        accumulator.absorb(batch.reports)
        return True

    async def handle_report(self, ledger, campaign, batch):
        campaign.absorb_shard(batch.reports, batch.round)
        await self.audit_log(batch)
        ledger.charge_batch(batch.multiplicity, batch.epsilon)
        return True

    async def handle_steps(self, ingest, ledger, batch, multiplicity):
        ingest.admit(ledger, batch, multiplicity)
        await self.audit_log(batch)
        ingest.commit(ledger, batch, multiplicity)
        return True

    async def audit_log(self, batch):
        return batch
