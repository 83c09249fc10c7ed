"""An await suspends the handler between charge and absorb."""


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

    async def audit_log(self, batch):
        return batch
